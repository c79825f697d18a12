module Filter = Ppj_oblivious.Filter
module Bitonic = Ppj_oblivious.Bitonic

let log2f x = log x /. log 2.
let fi = float_of_int

(* The closed forms take log2 of their size parameters; n = 0 or b = 0
   would silently evaluate to -inf/nan, which then "wins" (or poisons)
   every [argmin] comparison.  Reject degenerate inputs loudly. *)
let require_pos name v = if v < 1 then invalid_arg (name ^ " must be >= 1")

let alg1 ~a ~b ~n =
  require_pos "Cost.alg1: n" n;
  let lg = log2f (fi (2 * n)) in
  fi a +. (2. *. fi n *. fi a) +. (2. *. fi a *. fi b) +. (2. *. fi a *. fi b *. lg *. lg)

let alg1_variant ~a ~b =
  require_pos "Cost.alg1_variant: b" b;
  let lg = log2f (fi b) in
  fi a +. (2. *. fi a *. fi b) +. (fi a *. fi b *. lg *. lg)

let alg2 ~a ~b ~n ~m ?(delta = 0) () =
  let gamma = fi (Params.gamma ~n ~m ~delta ()) in
  fi a +. (fi n *. fi a) +. (gamma *. fi a *. fi b)

let alg3 ~a ~b ~n ?(presorted = false) () =
  require_pos "Cost.alg3: b" b;
  let lg = log2f (fi b) in
  let sort = if presorted then 0. else fi b *. lg *. lg in
  fi a +. (fi a *. fi n) +. sort +. (3. *. fi a *. fi b)

let ge w = 2 * w

let sfe_bits ~b ~n ~w ?(k0 = 64) ?(k1 = 100) ?(l = 50) ?(nn = 50) () =
  (8. *. fi l *. fi k0 *. fi b *. fi b *. fi (ge w))
  +. (32. *. fi l *. fi k1 *. fi b *. fi w)
  +. (2. *. fi nn *. fi l *. fi n *. fi k1 *. fi b *. fi w)

let alg1_bits ~a ~b ~n ~w = fi w *. alg1 ~a ~b ~n

type ch4_algorithm = A1 | A2 | A3

let argmin candidates =
  match candidates with
  | [] -> invalid_arg "Cost.argmin"
  | (tag0, c0) :: rest ->
      fst
        (List.fold_left
           (fun (bt, bc) (t, c) -> if c < bc then (t, c) else (bt, bc))
           (tag0, c0) rest)

let general_winner ~b ~n ~m =
  argmin [ (A1, alg1 ~a:b ~b ~n); (A2, alg2 ~a:b ~b ~n ~m ()) ]

let equijoin_winner ~b ~n ~m =
  argmin
    [ (A1, alg1 ~a:b ~b ~n);
      (A2, alg2 ~a:b ~b ~n ~m ());
      (A3, alg3 ~a:b ~b ~n ())
    ]

let alg2_at_gamma ~a ~b ~n ~gamma = fi a +. (fi n *. fi a) +. (gamma *. fi a *. fi b)

let n_of_alpha ~b ~alpha = max 1 (int_of_float (Float.round (alpha *. fi b)))

let general_winner_at ~b ~alpha ~gamma =
  let n = n_of_alpha ~b ~alpha in
  argmin [ (A1, alg1 ~a:b ~b ~n); (A2, alg2_at_gamma ~a:b ~b ~n ~gamma) ]

let equijoin_winner_at ~b ~alpha ~gamma =
  let n = n_of_alpha ~b ~alpha in
  argmin
    [ (A1, alg1 ~a:b ~b ~n);
      (A2, alg2_at_gamma ~a:b ~b ~n ~gamma);
      (A3, alg3 ~a:b ~b ~n ())
    ]

let filter_cost ~omega ~mu =
  if mu <= 0 || omega <= mu then 0.
  else
    let delta = Filter.optimal_delta ~mu in
    Filter.transfers ~omega ~mu ~delta

let alg4 ~l ~s = (2. *. fi l) +. filter_cost ~omega:l ~mu:s

let alg5 ~l ~s ~m = fi s +. (fi (Params.scans ~s ~m) *. fi l)

let alg6_given ~l ~s ~m ~n_star =
  let segs = Params.segments ~l ~n_star in
  let omega = segs * m in
  (2. *. fi l) +. fi omega +. filter_cost ~omega ~mu:s

let alg6 ~l ~s ~m ~eps =
  if m >= s then fi l +. fi s
  else
    let n_star = Hypergeom.n_star ~l ~s ~m ~eps in
    alg6_given ~l ~s ~m ~n_star

(* Exact (not asymptotic) transfer counts for the sort-based extensions.
   Each term mirrors one ledgered get/put in the implementation, so the
   bench's scaling experiment can assert measured = formula, not just
   measured ~ formula.  A network sort of p slots costs 4 transfers per
   comparator; padding to p = 2^ceil(log2 n) writes p - n sentinels. *)

let sort_exact n =
  let p = Bitonic.next_pow2 n in
  (p - n) + (4 * Bitonic.comparator_count p)

let filter_exact ~omega ~mu =
  if mu <= 0 || omega <= 0 then 0
  else begin
    let delta = max 1 (Filter.optimal_delta ~mu) in
    let cap = mu + delta in
    let pf = Bitonic.next_pow2 cap in
    let fill = min omega cap in
    let rounds = if omega > cap then (omega - cap + delta - 1) / delta else 0 in
    let refill = omega - fill in
    (2 * fill) + (cap - fill)
    + ((pf - cap) + (4 * Bitonic.comparator_count pf))
    + (rounds * 4 * Bitonic.comparator_count pf)
    + (2 * refill)
    + ((rounds * delta) - refill)
  end

let merge_exact ~p ~l ~s =
  if p < 1 then invalid_arg "Cost.merge_exact: p must be >= 1";
  let longest = min ((l + p - 1) / p) s in
  Bitonic.comparator_count (Bitonic.next_pow2 (p * longest))

let alg7 ~a ~b ~s =
  require_pos "Cost.alg7: a" a;
  require_pos "Cost.alg7: b" b;
  if s < 0 then invalid_arg "Cost.alg7: s must be >= 0";
  let t = a + b in
  let stage = 2 * t in
  let sort = sort_exact t in
  let scan = 2 * t in
  fi (stage + sort + scan + filter_exact ~omega:t ~mu:s)

let alg8 ~a ~b ~s =
  require_pos "Cost.alg8: a" a;
  require_pos "Cost.alg8: b" b;
  if s < 0 then invalid_arg "Cost.alg8: s must be >= 0";
  let t = a + b in
  let union = (2 * t) + sort_exact t in
  let annotate = 4 * t in
  let expand =
    if s = 0 then 0
    else begin
      let nl = t + s in
      (* One side: seed pass, S blank slots, distribute sort,
         fill-forward, align sort. *)
      let side = (2 * t) + s + sort_exact nl + (2 * nl) + sort_exact nl in
      (2 * side) + (3 * s)
    end
  in
  fi (union + annotate + expand)

let smc ~l ~s ?(xi1 = 67) ?(xi2 = 67) ?(k0 = 64) ?(k1 = 100) ?(w = 1) () =
  (fi xi1 *. fi k0 *. fi l *. fi (ge w))
  +. (32. *. fi xi1 *. fi k1 *. fi w *. sqrt (fi l))
  +. (2. *. fi xi2 *. fi xi1 *. fi k1 *. fi s *. fi w)
