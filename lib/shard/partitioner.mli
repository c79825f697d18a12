(** Input placement for sharded joins.

    [Replicate] is the one strategy: every shard holds the full
    relations and executes slice [k] of [p] of the work (the
    algorithms' [run_slice]).  Data placement is input-independent, so the
    per-shard traces inherit the sequential Definition 1/3 guarantees. *)

type strategy = Replicate
