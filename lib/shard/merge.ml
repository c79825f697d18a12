(* Oblivious merge of per-shard results.

   The coordinator holds p sealed result streams whose real counts s_k
   are data-dependent (two same-shape databases spread their S matches
   across shards differently).  Concatenating them naively would leak
   every s_k through the merged layout.  Instead:

   1. pad every shard's stream to the longest one (pad-to-max) — the
      padded length is the max over public per-shard stream sizes, so
      it reveals nothing beyond shape;
   2. concatenate in fixed shard order;
   3. compact reals to the front with {!Ppj_oblivious.Bitonic}'s
      network, whose schedule depends only on the slot count.

   The number of slots touched and comparators executed is a function
   of (p, max stream size) alone — that is the obliviousness argument,
   and {!stats} exposes both figures so tests and benches can pin it. *)

module Bitonic = Ppj_oblivious.Bitonic

type stats = { slots : int; comparators : int }

let run ~pad ~is_real streams =
  let max_len = List.fold_left (fun m l -> max m (List.length l)) 0 streams in
  let padded =
    List.concat_map
      (fun l -> l @ List.init (max_len - List.length l) (fun _ -> pad))
      streams
  in
  let slots = List.length padded in
  let n = Bitonic.next_pow2 slots in
  (* (rank, original slot, payload): rank 0 = real, 1 = shard pad, 2 =
     power-of-two sentinel.  Slots are distinct, so the order is total,
     the compaction stable and the network's result deterministic. *)
  let cells = Array.init n (fun i -> (2, i, pad)) in
  List.iteri (fun i x -> cells.(i) <- ((if is_real x then 0 else 1), i, x)) padded;
  Bitonic.sort_in_place
    (fun (r, i, _) (r', i', _) -> if r <> r' then Int.compare r r' else Int.compare i i')
    cells;
  let reals =
    List.filter_map (fun (r, _, x) -> if r = 0 then Some x else None) (Array.to_list cells)
  in
  (* every comparator of the schedule executes, whether or not it swaps *)
  (reals, { slots; comparators = Bitonic.comparator_count n })
