let next_pow2 n =
  if n <= 1 then 1
  else begin
    let p = ref 1 in
    while !p < n do
      p := !p * 2
    done;
    !p
  end

let is_pow2 n = n > 0 && n land (n - 1) = 0

let log2 n =
  let rec go n acc = if n = 1 then acc else go (n lsr 1) (acc + 1) in
  go n 0

(* The classic data-independent formulation: for block size k and distance
   j, lanes i and i lxor j are compare-exchanged, ascending iff
   i land k = 0.  Emitting (min, max) in ascending orientation and
   swapping operands for descending blocks yields a pure
   "swap-if-out-of-order" schedule. *)
let build_schedule n =
  let out = ref [] in
  let k = ref 2 in
  while !k <= n do
    let j = ref (!k / 2) in
    while !j >= 1 do
      for i = 0 to n - 1 do
        let l = i lxor !j in
        if l > i then
          if i land !k = 0 then out := (i, l) :: !out else out := (l, i) :: !out
      done;
      j := !j / 2
    done;
    k := !k * 2
  done;
  Array.of_list (List.rev !out)

(* The schedule is a pure function of n and every sort of that size walks
   it in full, so rebuilding it per call (list-cons + rev + of_list) was
   pure hot-path waste.  Memoize per size.  Shard jobs on the Domains
   backend sort concurrently, so the cache is an immutable map published
   through an Atomic compare-and-set rather than a shared Hashtbl — a
   domain that loses the publish race discards its build and adopts the
   winner's.  [schedule_builds] counts installed schedules, so a repeat
   sort of a seen size never bumps it and the regression test can prove
   no rebuild happened. *)
module Sizes = Map.Make (Int)

let cache : (int * int) array Sizes.t Atomic.t = Atomic.make Sizes.empty
let builds = Atomic.make 0
let schedule_builds () = Atomic.get builds

let schedule n =
  if not (is_pow2 n) then invalid_arg "Bitonic.schedule: length must be a power of two";
  match Sizes.find_opt n (Atomic.get cache) with
  | Some s -> s
  | None ->
      let s = build_schedule n in
      let rec publish () =
        let cur = Atomic.get cache in
        match Sizes.find_opt n cur with
        | Some winner -> winner
        | None ->
            if Atomic.compare_and_set cache cur (Sizes.add n s cur) then begin
              Atomic.incr builds;
              s
            end
            else publish ()
      in
      publish ()

let comparator_count n =
  if n = 1 then 0
  else
    let l = log2 n in
    n / 2 * (l * (l + 1) / 2)

let sort_in_place cmp a =
  Array.iter
    (fun (i, j) ->
      if cmp a.(i) a.(j) > 0 then begin
        let t = a.(i) in
        a.(i) <- a.(j);
        a.(j) <- t
      end)
    (schedule (Array.length a))
