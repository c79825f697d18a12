type t = {
  mutable values : float array;
  mutable len : int;
  mutable seen : int;
  mutable total : float;
  mutable lcg : int64;
}

let cap = 4096

type summary = {
  count : int;
  sum : float;
  min : float;
  max : float;
  mean : float;
  p50 : float;
  p95 : float;
  p99 : float;
  sampled : bool;
  samples : float array;
}

let create () =
  { values = Array.make 16 0.; len = 0; seen = 0; total = 0.; lcg = 0x9E3779B97F4A7C15L }

(* SplitMix64 step: deterministic per-histogram stream, independent of
   the global [Random] state so snapshots stay reproducible. *)
let next_rand t =
  let open Int64 in
  t.lcg <- add t.lcg 0x9E3779B97F4A7C15L;
  let z = t.lcg in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  let z = logxor z (shift_right_logical z 31) in
  to_int (shift_right_logical z 2) (* non-negative OCaml int on 64-bit *)

let append t v =
  if t.len = Array.length t.values then begin
    let next = Stdlib.min cap (2 * t.len) in
    let bigger = Array.make next 0. in
    Array.blit t.values 0 bigger 0 t.len;
    t.values <- bigger
  end;
  t.values.(t.len) <- v;
  t.len <- t.len + 1

let observe t v =
  if not (Float.is_finite v) then invalid_arg "Histogram.observe: non-finite value";
  if t.len >= cap then begin
    (* Algorithm R: the (seen+1)-th observation replaces a random slot
       with probability cap / (seen+1). *)
    let j = next_rand t mod (t.seen + 1) in
    if j < cap then t.values.(j) <- v
  end
  else append t v;
  t.seen <- t.seen + 1;
  t.total <- t.total +. v

let count t = t.seen

let sum t = t.total

(* Fewer values held than observed: the reservoir dropped some. *)
let sampled t = t.seen > t.len

let sorted t =
  let a = Array.sub t.values 0 t.len in
  Array.sort Float.compare a;
  a

let rank_of q len = max 1 (int_of_float (ceil (q /. 100. *. float_of_int len)))

let percentile t q =
  if not (q > 0. && q <= 100.) then invalid_arg "Histogram.percentile: q outside (0, 100]";
  if t.len = 0 then None else Some (sorted t).(rank_of q t.len - 1)

(* Evenly-strided downsample of a sorted array: slot [j] takes the value
   at quantile (j + 1/2) / limit, so the grid's own nearest-rank
   quantiles track the source's within one stride. *)
let grid_of_sorted a limit =
  let n = Array.length a in
  if n <= limit then a
  else Array.init limit (fun j -> a.(Stdlib.min (n - 1) (n * (2 * j + 1) / (2 * limit))))

let summary ?sample_limit t =
  if t.len = 0 then None
  else
    let a = sorted t in
    let samples, clipped =
      match sample_limit with
      | Some limit when limit >= 1 && t.len > limit -> (grid_of_sorted a limit, true)
      | _ -> (a, false)
    in
    Some
      { count = t.seen;
        sum = t.total;
        min = a.(0);
        max = a.(t.len - 1);
        mean = t.total /. float_of_int t.seen;
        p50 = a.(rank_of 50. t.len - 1);
        p95 = a.(rank_of 95. t.len - 1);
        p99 = a.(rank_of 99. t.len - 1);
        sampled = sampled t || clipped;
        samples;
      }

(* --- merging --------------------------------------------------------- *)

(* Weighted nearest-rank quantile over (value, weight) pairs sorted by
   value: the smallest value whose cumulative weight reaches q * W.
   With unit weights this is exactly [rank_of]'s convention. *)
let weighted_quantile pairs total q =
  let want = q *. total in
  let n = Array.length pairs in
  let rec go i cum =
    if i >= n - 1 then fst pairs.(n - 1)
    else
      let cum = cum +. snd pairs.(i) in
      if cum >= want -. 1e-9 then fst pairs.(i) else go (i + 1) cum
  in
  go 0 0.

let weighted_pairs summaries =
  (* Each retained sample of a reservoir stands for count/|reservoir|
     observations. *)
  let pairs =
    List.concat_map
      (fun (samples, count) ->
        let len = Array.length samples in
        if len = 0 then []
        else
          let w = float_of_int count /. float_of_int len in
          Array.to_list (Array.map (fun v -> (v, w)) samples))
      summaries
  in
  let a = Array.of_list pairs in
  Array.sort (fun (x, _) (y, _) -> Float.compare x y) a;
  a

let merge_target = 256

let merge_summaries a b =
  let count = a.count + b.count in
  let sum = a.sum +. b.sum in
  (* Reservoirs from old snapshot files may lack raw samples; stand in a
     five-point sketch so the merged quantiles stay order-of-magnitude
     right instead of raising. *)
  let side s =
    let samples =
      if Array.length s.samples > 0 then s.samples
      else [| s.min; s.p50; s.p95; s.p99; s.max |]
    in
    (samples, s.count)
  in
  let pairs = weighted_pairs [ side a; side b ] in
  let total = Array.fold_left (fun acc (_, w) -> acc +. w) 0. pairs in
  let exact =
    (not a.sampled) && (not b.sampled)
    && Array.length a.samples = a.count
    && Array.length b.samples = b.count
  in
  let values = Array.map fst pairs in
  let samples, clipped =
    if Array.length values <= merge_target then (values, false)
    else (grid_of_sorted values merge_target, true)
  in
  { count;
    sum;
    min = Stdlib.min a.min b.min;
    max = Stdlib.max a.max b.max;
    mean = sum /. float_of_int count;
    p50 = weighted_quantile pairs total 0.50;
    p95 = weighted_quantile pairs total 0.95;
    p99 = weighted_quantile pairs total 0.99;
    sampled = (not exact) || clipped;
    samples;
  }
