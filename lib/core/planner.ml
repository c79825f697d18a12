type plan = Use_alg4 | Use_alg5 | Use_alg6 of { eps : float } | Use_alg8

let choose ?ab ~l ~s ~m ~max_eps () =
  let candidates =
    [ (Use_alg4, Cost.alg4 ~l ~s); (Use_alg5, Cost.alg5 ~l ~s ~m) ]
    @ (if max_eps > 0. then
         [ (Use_alg6 { eps = max_eps }, Cost.alg6 ~l ~s ~m ~eps:max_eps) ]
       else [])
    @
    (* Algorithm 8 needs the per-relation sizes (its cost is in |A| + |B|,
       not L) and, being an equi-join, only callers that know the join
       attributes can execute it — they signal both by passing [ab]. *)
    match ab with Some (a, b) -> [ (Use_alg8, Cost.alg8 ~a ~b ~s) ] | None -> []
  in
  List.fold_left
    (fun (bp, bc) (p, c) -> if c < bc then (p, c) else (bp, bc))
    (List.hd candidates) (List.tl candidates)

let choose_ch4 ~a ~b ~n ~m ~equijoin =
  let candidates =
    [ (Cost.A1, Cost.alg1 ~a ~b ~n); (Cost.A2, Cost.alg2 ~a ~b ~n ~m ()) ]
    @ (if equijoin then [ (Cost.A3, Cost.alg3 ~a ~b ~n ()) ] else [])
  in
  List.fold_left
    (fun (bp, bc) (p, c) -> if c < bc then (p, c) else (bp, bc))
    (List.hd candidates) (List.tl candidates)
