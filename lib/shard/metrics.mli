(** Mutex-guarded metrics sink for shard jobs.

    {!Ppj_obs.Registry} locks its own table and counters are atomic, but
    {!Ppj_obs.Histogram.observe} is unsynchronised; shard jobs running
    on Domains update [shard.co.load] together, so every observation
    goes through this wrapper's single mutex.  Publishes [shard.co.load] (per-shard transfer
    histogram — p95/max expose partitioner skew), [shard.co.transfers]
    (labelled [co=k]), [shard.co.completed]/[shard.co.failed],
    [shard.p], [shard.speedup], [shard.transfers.total] and the
    [shard.merge.*] schedule gauges. *)

type t

val create : ?registry:Ppj_obs.Registry.t -> unit -> t

val registry : t -> Ppj_obs.Registry.t
(** The underlying registry — read it only after parallel jobs joined. *)

val shard_done : t -> shard:int -> transfers:int -> unit
(** Called from inside a shard job (possibly on another domain). *)

val shard_failed : t -> shard:int -> unit

val observe_outcome :
  t ->
  p:int ->
  backend:string ->
  per_shard:int array ->
  speedup:float ->
  merge:Merge.stats ->
  unit
