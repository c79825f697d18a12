(** The shard coordinator: one submit fanned out across p shard servers.

    Two backends share the partition → execute → obliviously-merge state
    machine:

    - {!run_local} — in-process: slice [k] is the
      {!Ppj_core.Service.execute_join} of [Sharded { k; p; inner }] that
      a shard server runs, on its own coprocessor; on OCaml 5 the slices
      run on [Domain]s (true parallelism; metrics flow through the
      Mutex-guarded {!Metrics} sink), on 4.x sequentially.  With
      [~backend:Sequential] this is the paper's multi-coprocessor model
      (§4.4.4, §5.3.5): each slice learns [S] untraced, so each shard's
      transfer count is its slice's alone, exactly as {!run_wire}'s
      shard servers report theirs.
    - {!run_wire} — distribution: each shard is a full Reactor-hosted
      server spoken to over the existing wire protocol; the coordinator
      submits every provider's relation to every shard (replicate
      partitioning), executes [Sharded { k; p; inner }], fetches the p
      sealed results, and merges them with the pad-to-max oblivious
      {!Merge}.  A shard that fails is a typed [shard-unavailable]
      refusal, with no second dial; a shard whose coprocessor crashed
      resumes from its sealed checkpoint inside the per-shard client's
      own retries. *)

module Service = Ppj_core.Service
module Channel = Ppj_scpu.Channel
module Tuple = Ppj_relation.Tuple
module Schema = Ppj_relation.Schema
module Relation = Ppj_relation.Relation
module Predicate = Ppj_relation.Predicate
module Client = Ppj_net.Client
module Wire = Ppj_net.Wire

type config = {
  p : int;
  m : int;  (** per-shard coprocessor memory *)
  seed : int;
  inner : Service.algorithm;  (** [Alg4], [Alg5], [Alg6 _] or [Alg8 _] *)
  strategy : Partitioner.strategy;
}

type backend = Sequential | Domains

type outcome = {
  results : Tuple.t list;
  per_shard_transfers : int array;
  per_shard_pad_slots : int array;
      (** each slice's sentinel slots ({!Ppj_core.Report.pad_slots}) *)
  speedup : float;
      (** model speedup: total transfers / slowest shard, 1.0 when no
          shard did any work *)
  merge : Merge.stats;
  backend : string;  (** "domains" or "sequential" — what actually ran *)
}

type wire_outcome = {
  tuples : Tuple.t list;
  schema : Schema.t;
  wire_per_shard_transfers : int array;
  wire_merge : Merge.stats;
}

val validate : config -> (unit, string) result
(** A non-positive [p] and inner algorithms other than 4, 5, 6 and 8
    are rejected here, before any work. *)

val run_local :
  ?metrics:Metrics.t ->
  ?backend:backend ->
  config ->
  predicate:Predicate.t ->
  Relation.t list ->
  (outcome, string) result
(** Default backend: [Domains] when the runtime has them, else
    [Sequential].  Requesting [Domains] on OCaml 4.x silently degrades
    to sequential (the [backend] field reports the truth).  An Algorithm
    6 slice that blemishes ({!Ppj_core.Algorithm6.Blemished}) makes the
    job an [Error]; a shard server answers it with an [Internal] error,
    which no client retries. *)

val submit_wire :
  ?client_config:Client.config ->
  shards:Shards.t ->
  seed:int ->
  mac_key:string ->
  contract:Channel.contract ->
  id:string ->
  schema:Schema.t ->
  Relation.t ->
  (unit, string) result
(** Fan one provider's sealed upload out to every shard server
    (replicate partitioning: each shard holds the full relation and will
    execute its slice of the work). *)

val fetch_wire :
  ?metrics:Metrics.t ->
  ?client_config:Client.config ->
  shards:Shards.t ->
  seed:int ->
  mac_key:string ->
  contract:Channel.contract ->
  config ->
  (wire_outcome, string) result
(** As the contract's recipient: execute [Sharded { k; p; inner }] on
    every shard, fetch the p sealed results and merge them obliviously.
    Every shard is sent [config.seed] and derives its slice's own
    coprocessor seed ({!Ppj_core.Service.coprocessor_seed}).  [seed]
    derives the per-session handshake RNGs.  Errors are prefixed ["shard-unavailable: shard k: ..."] — the
    typed refusal the chaos harness asserts on. *)

val run_wire :
  ?metrics:Metrics.t ->
  ?client_config:Client.config ->
  shards:Shards.t ->
  seed:int ->
  mac_key:string ->
  contract:Channel.contract ->
  providers:(string * Schema.t * Relation.t) list ->
  config ->
  (wire_outcome, string) result
(** {!submit_wire} for every provider, then {!fetch_wire}. *)

type fleet_stats = {
  shard_infos : (int * Wire.stats_info) list;
      (** health fields per shard, in shard order *)
  fleet_snapshot : Ppj_obs.Snapshot.t;
      (** one snapshot holding both views: every shard metric relabelled
          with [shard="k"], plus the unlabelled fleet rollup where
          counters are summed and reservoir histograms merged — so
          fleet-wide p50/p95/p99 are computable from one scrape *)
}

val stats :
  ?client_config:Client.config ->
  shards:Shards.t ->
  unit ->
  (fleet_stats, string) result
(** Federated scrape: one [Stats_request] session per shard (no
    handshake — the server answers stats in any phase), merged as
    described on {!fleet_stats}.  A shard that cannot be scraped fails
    the whole call with the typed ["shard-unavailable"] prefix. *)
