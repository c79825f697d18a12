(** Oblivious merge of per-shard result streams.

    Pads every stream to the longest (pad-to-max), concatenates in fixed
    shard order, and compacts the reals to the front with the
    {!Ppj_oblivious.Bitonic} network, whose schedule — and therefore
    the merge's entire access pattern — depends only on the slot count,
    never on how the S reals are distributed across shards.  See DESIGN.md "Sharded
    deployment" for the full argument. *)

type stats = {
  slots : int;  (** padded slot count fed to the network *)
  comparators : int;  (** compare-exchanges executed (schedule-fixed) *)
}

val run : pad:'a -> is_real:('a -> bool) -> 'a list list -> 'a list * stats
(** [run ~pad ~is_real streams] returns the reals of all streams, in
    stable (shard-order, then stream-order) order, plus the schedule
    stats.  [pad] fills short streams and power-of-two slack; it is
    never returned. *)
