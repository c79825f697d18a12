let alg4 inst ~k ~p ~s =
  let (_ : int) = Algorithm4.run_slice inst ~budget:(Public { s }) ~k ~p () in
  ()
