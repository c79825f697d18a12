(** Seeded chaos soaks, and the fault-free oracle they judge against.

    A soak plays one trial per consecutive seed.  What a trial does is
    the caller's per-seed run function: {!wire} threads one random
    {!Ppj_fault.Plan} through every layer of the networked service; the
    shard tests kill one shard of a coordinator; [ppj restart-chaos]
    SIGKILLs a real server process mid-join.  Every trial ends in the
    same {!outcome}, produced by the same {!judge}, and every soak
    shares the counters, the per-run lines of {!printing} and the
    {!pp_report} summary.

    The safety claim under test is the paper's: whatever the adversary
    does to the wire, the host or the process, the recipient either gets
    exactly the right answer (possibly after checkpoint resume) or a
    typed refusal — never a wrong answer, and, because nothing in the
    in-process stacks sleeps or blocks, never a hang. *)

type outcome =
  | Correct  (** delivery matches the fault-free oracle, byte for byte *)
  | Tamper of string
      (** the coprocessor detected tampering and refused — safe *)
  | Refused of string
      (** a typed failure (retries exhausted, auth failure, protocol
          error, shard unavailable...) — safe *)
  | Wrong of string  (** the one outcome that must never happen *)

type run = {
  seed : int;
  plan : string;  (** what the seed armed, printable *)
  outcome : outcome;
  crashes : int;  (** coprocessor or process crashes the trial survived or died of *)
  injected : int;  (** plan events that actually fired *)
}

val safe : run -> bool
(** Everything except [Wrong]. *)

val outcome_to_string : outcome -> string

val oracle :
  Ppj_core.Service.config ->
  contract:Ppj_scpu.Channel.contract ->
  (Ppj_relation.Schema.t * Ppj_relation.Relation.t) list ->
  (string list, string) result
(** The fault-free three-party answer: {!Ppj_core.Service.run} in
    process, one submission per provider of [contract] (in order), the
    contract's own predicate, delivered to its recipient.  Returns the
    sorted tuple encodings {!judge} compares against. *)

val judge : expected:string list -> (Ppj_relation.Tuple.t list, string) result -> outcome
(** An error is [Tamper] when it names tampering, else [Refused]; a
    delivery is [Correct] iff its sorted encodings equal [expected]. *)

val soak : ?registry:Ppj_obs.Registry.t -> ?seed0:int -> runs:int -> (int -> run) -> run list
(** [runs] trials of the per-seed run function on consecutive seeds
    from [seed0] (default 1).  Each run is counted in [registry]:
    [chaos.runs], one of [chaos.correct|tamper|refused|wrong], and
    [chaos.faults.injected] and [chaos.crashes] by the run's figures —
    all present in exports even at zero. *)

type tally = {
  runs : int;
  correct : int;
  resumed : int;  (** correct runs that survived at least one crash *)
  tamper : int;
  refused : int;
  wrong : int;
  faults : int;  (** plan events fired, summed *)
}

val tally : run list -> tally

val printing : ?verbose:bool -> (int -> run) -> int -> run
(** [printing trial] is [trial], printing each run's line to stdout as
    soon as the run ends: every run under [verbose], else only unsafe
    ones.  So the lines of finished runs survive a later run that exits
    the process. *)

val pp_report : name:string -> Format.formatter -> run list -> unit
(** The summary line [name: N runs — ...]. *)

val wire : ?recorder:Ppj_obs.Recorder.t -> ?server_recorder:Ppj_obs.Recorder.t -> int -> run
(** The networked trial for one seed: draw [Plan.random ~seed], arm one
    injector with it and thread it through the server's coprocessor
    (crash / ciphertext corruption / replay), the {!Transport.loopback}
    gate in both directions (drop / duplicate / delay / payload
    corruption) and the client's receive path (injected timeouts); then
    two providers upload, the recipient executes and fetches — every
    session through the server's one {!Reactor} — and {!judge} compares
    the delivery with {!oracle}.  Deterministic per seed.
    [recorder] records the client's side and [server_recorder] the
    server's, so a soak exports a flight-recorder trace of every crash,
    resume and retry (merge the two exports with
    {!Ppj_obs.Recorder.merge}).  Each run first adopts the trace id
    [chaos-<seed>] on both, instead of the recorders' clock-derived
    ones.  The client stamps its context into the attest request, where
    a frame-corruption event can land on it: the server then records
    that session under the mangled id, and the client keeps the run's
    own.  The context also names the client's open span, numbered by
    what the recorder has seen, so under a recorder a run is
    reproducible given the same recorder history (a soak from the same
    first seed on fresh recorders). *)
