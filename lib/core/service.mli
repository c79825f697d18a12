(** The end-to-end privacy preserving join service (§3.2).

    Wires everything together the way the paper's deployment story does:
    data providers submit contract-bound encrypted relations over
    authenticated channels; the service verifies the coprocessor's
    outbound-authentication chain and each submission's contract; [T]
    executes the selected join algorithm; and the result is sealed to the
    recipient — which may be a party distinct from every provider — who
    alone can decrypt it and drop the decoys. *)

module Channel = Ppj_scpu.Channel
module Schema = Ppj_relation.Schema
module Tuple = Ppj_relation.Tuple
module Predicate = Ppj_relation.Predicate

type algorithm =
  | Alg1 of { n : int }
  | Alg2 of { n : int }
  | Alg3 of { n : int; attr_a : string; attr_b : string }
  | Alg4
  | Alg5
  | Alg6 of { eps : float }
  | Alg7 of { attr_a : string; attr_b : string }
      (** The sort-based oblivious PK–FK equijoin extension. *)
  | Alg8 of { attr_a : string; attr_b : string }
      (** The sort-based oblivious many-to-many equijoin
          ({!Algorithm8}): duplicates allowed on both sides,
          O((|A| + |B| + S) log² ·) transfers. *)
  | Auto of { max_eps : float }
      (** Let the {!Planner} pick the cheapest Chapter 5 algorithm whose
          privacy level is at least [1 - max_eps], using a screening pass
          to learn [S] (the §4.3 preprocessing). *)
  | Sharded of { k : int; p : int; inner : algorithm }
      (** Run shard [k] of [p] of a multi-coprocessor job: the {!Sharded}
          slice of [inner], which must be [Alg4], [Alg5], [Alg6], [Alg8]
          or [Auto] (resolved by the planner into one of the first three).  The
          server holds the full relations — replicate partitioning — and
          executes only its slice; a coordinator ([lib/shard]) merges the
          [p] sealed results.  The slice learns S untraced, runs on the
          coprocessor seeded by {!coprocessor_seed}, and labels the
          oblivious layer's ambient metrics with [shard=k]; a shard
          server and the coordinator's in-process backend both run
          slices through {!execute_join}. *)

type config = { m : int; seed : int; algorithm : algorithm }

type outcome = {
  report : Report.t;
  delivered : Tuple.t list;  (** what the recipient actually decoded *)
}

val attested_layers : Ppj_scpu.Attestation.layer list
(** The service's software stack (Miniboot → OS → join application). *)

(** {2 Server-side handlers}

    {!run} is the in-process composition of the four steps below; the
    wire protocol ([lib/net]) drives the same steps from a remote client,
    so the two deployments share one implementation. *)

val attestation_chain : unit -> Ppj_scpu.Attestation.certificate list
(** The chain a requestor fetches before entrusting the service with
    data (§3.3.3 outbound authentication). *)

val verify_chain : Ppj_scpu.Attestation.certificate list -> bool
(** Requestor-side check of a fetched chain against the known-trusted
    {!attested_layers} digests.  (The device-keyed MAC stands in for the
    4758's signatures — the documented {!Ppj_scpu.Attestation}
    substitution — so verification uses the same device key.) *)

exception Join_crashed of { inst : Instance.t; transfer : int }
(** The coprocessor died (injected crash) and the caller's resume budget
    is spent.  The instance is retained so a later {!resume_join} — e.g.
    when a remote client retries — can pick the join back up from the
    last sealed checkpoint. *)

val algorithm_name : algorithm -> string
(** Short lowercase tag ("alg5", "auto") for logs, spans and reports. *)

val coprocessor_seed : config -> int
(** The seed of the coprocessor a config runs on, hence of its storage
    key and nonce stream: [seed], or [seed + 1000·k] for slice [k] of a
    [Sharded] job.  Slices of one job must seal under distinct keys, or
    two shards' hosts would hold equal ciphertexts wherever both slices
    hold a decoy.  Algorithm 6's shared MLFSR order still derives from
    [seed] itself. *)

val execute_join :
  ?faults:Ppj_fault.Injector.t ->
  ?checkpoint_every:int ->
  ?on_checkpoint:(version:int -> image:Ppj_scpu.Host.export -> unit) ->
  ?nvram_init:int ->
  ?recorder:Ppj_obs.Recorder.t ->
  ?event_batch:int ->
  ?max_resumes:int ->
  config ->
  predicate:Predicate.t ->
  Ppj_relation.Relation.t list ->
  Instance.t * Report.t
(** The join phase alone: build the instance over already-accepted
    relations and run the configured algorithm.  [faults] arms the fault
    injector for this run and [checkpoint_every] the sealed recovery
    checkpoints; on an injected coprocessor crash, up to [max_resumes]
    (default 0) in-process recoveries are attempted before
    {!Join_crashed} escapes.  With a [recorder], the run opens a "join"
    span (remembered in the instance for later resume parenting), each
    in-process recovery opens a "resume" span under it, and the
    coprocessor emits transfer-batch/fault/checkpoint events
    ([event_batch] tunes their granularity).  [on_checkpoint] receives
    every sealed checkpoint's NVRAM version and host image — the hook a
    durable server persists them through. *)

val resume_join : config -> Instance.t -> Instance.t * Report.t
(** Recover the crashed instance from its last sealed checkpoint (or from
    scratch if it never checkpointed) and re-run the algorithm to
    completion, under a "resume" span parented on the original join span
    when the instance carries a recorder.
    @raise Join_crashed if a further crash event fires. *)

val result_otuples : Instance.t -> string list
(** Re-read the persisted oTuple stream through [T] and decrypt it:
    the plaintext stream (reals still interleaved with decoys) that
    {!seal_otuples} seals — and that a durable server caches so a
    restarted process can re-seal to a fresh session key. *)

val seal_otuples :
  Instance.t ->
  recipient:Channel.party ->
  contract:Channel.contract ->
  string list ->
  string
(** Seal an oTuple stream to the recipient's session key as one message
    (under an "output" span when the instance carries a recorder). *)

val seal_to :
  Instance.t -> recipient:Channel.party -> contract:Channel.contract -> string
(** [seal_otuples] of [result_otuples]: re-read the persisted oTuple
    stream through [T], decrypt, and seal it to the recipient. *)

val open_delivery :
  schema:Schema.t ->
  recipient:Channel.party ->
  contract:Channel.contract ->
  string ->
  (Tuple.t list, string) result
(** Recipient-side: open a sealed result, drop decoys, and decode the
    surviving payloads under the joined schema. *)

val run :
  ?recorder:Ppj_obs.Recorder.t ->
  config ->
  contract:Channel.contract ->
  submissions:(Channel.party * Schema.t * Channel.submission) list ->
  recipient:Channel.party ->
  predicate:Predicate.t ->
  (outcome, string) result
(** Returns [Error _] if attestation fails, a submission does not
    authenticate, or its embedded contract disagrees with [T]'s copy.

    Each phase — attestation, submission verify, join, sealing — runs
    under a wall-clock span; the spans appear in the returned report's
    [metrics] as [service.phase.seconds] histograms labelled by phase,
    alongside the coprocessor's transfer counters. *)
