(* The property every decoder of bytes read back from the network, the
   journal or a sealed blob must have: it is total.  Decoding an
   encoding gives the value back, and every strict prefix and every
   one-byte flip of that encoding decodes to [Ok] or [Error] -- an
   exception escaping [decode] fails the property.  [decode v s] gets
   the encoded value too, for decoders keyed by something outside the
   bytes (a frame's tag). *)

let flip s i mask =
  let b = Bytes.of_string s in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor mask));
  Bytes.to_string b

let check name ?(count = 200) ~print gen ~encode ~decode =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count ~name
       (QCheck.make ~print:(fun (v, _) -> print v) QCheck.Gen.(pair gen (int_range 1 255)))
       (fun (v, mask) ->
         let s = encode v in
         let positions = List.init (String.length s) Fun.id in
         let answers s = match decode v s with Ok _ | Error _ -> true in
         decode v s = Ok v
         && List.for_all (fun n -> answers (String.sub s 0 n)) positions
         && List.for_all (fun i -> answers (flip s i mask)) positions))
