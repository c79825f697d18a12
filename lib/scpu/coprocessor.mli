(** The secure coprocessor [T].

    The simulator gives [T] exactly the powers the paper assumes and no
    more: a small private memory (enforced by an explicit ledger — a
    faithful algorithm must never retain more than [M] tuples), a block
    cipher, and [get]/[put] primitives that move one encrypted tuple at a
    time between [T] and the host while appending to the observable
    {!Trace.t}.  Every [get] decrypts and authenticates; every [put]
    re-encrypts under a fresh nonce, so two encryptions of the same tuple
    are indistinguishable (semantic security, §4.3).

    Each stored tuple is sealed together with its (region, index, epoch)
    binding and checked against [T]'s private per-slot epoch table on
    read, so a malicious host replaying an authentic-but-stale ciphertext
    — or moving one between slots — raises {!Tamper_detected} just like a
    bit flip does (§3.3.1's active adversary).

    {b Faults and recovery.}  An optional {!Ppj_fault.Injector.t} attacks
    chosen transfers (corrupt / replay / crash-the-coprocessor), and an
    optional checkpoint interval makes crashes survivable: every [c]
    transfers [T] seals its private state — transfer clock, nonce
    counter, cycle count, memory ledger, epoch table — into the
    single-slot [Checkpoint] host region (version-stamped against an
    NVRAM counter so old checkpoints cannot be replayed), and the host
    retains its paired memory image.  {!resume} builds a fresh [T] from
    the same seed that {e replays} the computation deterministically up
    to the checkpointed transfer in a ghost world (no trace entries, no
    transfer charges), proves the re-derived state equals the sealed one,
    then swaps the host back to the checkpoint image and continues live.
    Checkpoint placement depends on the transfer clock only, so the
    extended trace of a crash-resume run stays a function of input shape
    (Definitions 1 and 3). *)

type t

exception Tamper_detected of string
(** Raised when authenticated decryption fails or a slot fails the
    freshness check; the paper's [T] terminates the computation
    immediately (§3.3.1). *)

exception Memory_exceeded of string
(** Raised when an algorithm tries to retain more than [M] tuples. *)

exception Crashed of { transfer : int }
(** An injected coprocessor crash: [T] died before executing the given
    transfer.  Volatile state is gone; {!resume} recovers from the last
    sealed checkpoint. *)

val create :
  ?recorder:Ppj_obs.Recorder.t ->
  ?event_batch:int ->
  ?faults:Ppj_fault.Injector.t ->
  ?checkpoint_every:int ->
  ?on_checkpoint:(version:int -> image:Host.export -> unit) ->
  ?nvram:int ref ->
  host:Host.t ->
  m:int ->
  seed:int ->
  unit ->
  t
(** [m] is the free memory in tuples (the paper's [M]).  [recorder]
    receives flight-recorder events — one [scpu.transfer.batch] per
    [event_batch] live transfers (default 64), [fault.*] on injected
    faults, [scpu.checkpoint] / [scpu.resumed] on recovery — all keyed
    to the op clock so the event stream depends on input shape only.
    [faults] schedules host attacks and crashes against this run's
    transfers; [checkpoint_every] seals recovery state every so many
    transfers (off by default — the paper's protocol is unchanged unless
    asked for); [nvram] is the crash-surviving monotonic version
    counter, shared with any later {!resume}.  [on_checkpoint] fires
    after every sealed checkpoint with the new NVRAM version and the
    host's ciphertext image, letting a server persist both so the join
    survives process death, not just coprocessor crashes. *)

val resume :
  ?recorder:Ppj_obs.Recorder.t ->
  ?event_batch:int ->
  ?faults:Ppj_fault.Injector.t ->
  ?checkpoint_every:int ->
  ?on_checkpoint:(version:int -> image:Host.export -> unit) ->
  nvram:int ref ->
  host:Host.t ->
  m:int ->
  seed:int ->
  unit ->
  t
(** Recover after {!Crashed}: restore the host's checkpoint image, open
    and validate the sealed checkpoint (version must equal [!nvram] —
    an older blob is a rollback and raises {!Tamper_detected}), and
    return a coprocessor in ghost-replay mode.  The caller re-runs the
    same deterministic computation from the start; replayed transfers
    touch a rebuilt pristine world and leave no trace, and at the
    checkpointed transfer [T] verifies the replayed state against the
    sealed one and switches to the live host image.
    @raise Invalid_argument if the host holds no checkpoint. *)

val resuming : t -> bool
(** Still inside the ghost replay prefix. *)

val host : t -> Host.t

val recorder : t -> Ppj_obs.Recorder.t option

val with_span : t -> ?attrs:(string * int) list -> string -> (unit -> 'a) -> 'a
(** Run the thunk under a flight-recorder span (no-op without a
    recorder).  Attributes are integers only — counts and sizes, the
    quantities the host adversary already observes — so layers below
    [ppj_obs] in the dependency graph (the oblivious building blocks)
    can open phase spans without depending on the recorder's attribute
    types. *)

val event : t -> ?attrs:(string * int) list -> string -> unit
(** Record a flight-recorder point event (no-op without a recorder). *)

val trace : t -> Trace.t

val m : t -> int

val get : t -> Trace.region -> int -> string
(** Fetch, authenticate, freshness-check and decrypt one tuple; records a
    [Read] and counts one transfer. *)

val put : t -> Trace.region -> int -> string -> unit
(** Encrypt under a fresh nonce and store; records a [Write] and counts
    one transfer. *)

val load_region : t -> Trace.region -> string array -> unit
(** Pre-protocol setup: define a host region holding the given plaintext
    tuples encrypted for [T].  Models the data providers' submissions
    (which the paper does not charge to the join's transfer cost). *)

val transfers : t -> int
(** Total tuple transfers so far — the paper's cost unit (§4.3). *)

val ops : t -> int
(** The logical transfer clock fault plans and checkpoints are scheduled
    on: algorithm [get]/[put] ops including any replayed ghost prefix,
    excluding checkpoint writes. *)

val alloc : t -> int -> unit
(** Claim ledger space for tuples retained in [T]'s memory. *)

val free : t -> int -> unit

val mem_in_use : t -> int

val rng : t -> Ppj_crypto.Rng.t
(** [T]-internal randomness (nonces, shuffle tags, MLFSR seeds). *)

val fresh_seed : t -> int

val tick : t -> int -> unit
(** Burn a fixed number of cycles — the §3.4.3 Fixed Time principle's
    padding hook.  The cycle count must end up a function of input sizes
    only; tests assert this. *)

val cycles : t -> int

val count_pad_slots : t -> Trace.region -> int -> unit
(** Count sentinel slots a padded sort wrote into a region
    ({!Ppj_oblivious.Sort.sort_padded} reports here). *)

val pad_slots : t -> (Trace.region * int) list
(** This execution's sentinel slots per region, summed over every
    padded sort of the region, in first-padded order.  A resumed [T]
    starts from none and its replay reruns every sort, so a
    crash-resumed execution counts its padding once. *)

val decrypt_for_recipient : t -> string -> string
(** Recipient-side decryption of one disk ciphertext (the simulator uses
    [T]'s storage key as the session key with the recipient); the slot
    header is stripped.
    @raise Tamper_detected on authentication failure. *)

val observe : ?labels:(string * string) list -> t -> Ppj_obs.Registry.t -> unit
(** Publish this coprocessor's counters into a registry: total/per-region
    transfer counts ([scpu.transfers], [scpu.region.*] with a [region]
    label), cycle count, the memory-ledger gauges ([scpu.mem_limit],
    [scpu.mem_in_use], [scpu.mem_peak]), and the recovery figures
    ([recovery.checkpoints], [recovery.resumes], [recovery.ghost_ops],
    [recovery.checkpoint.bytes]) and {!observe_pad_slots}.  Pull-based
    and idempotent: the hot [get]/[put] path is untouched, and
    re-observing the same coprocessor into the same registry just
    refreshes the values. *)

val observe_pad_slots : ?labels:(string * string) list -> t -> Ppj_obs.Registry.t -> unit
(** Publish {!pad_slots} alone, as the [oblivious.sort.pad_slots] gauge
    per [region] (a server records each computed join's padding this
    way). *)
