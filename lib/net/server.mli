(** The join service as a network server.

    A {!t} is the protocol engine: shared state (registered contracts,
    collected submissions, the handshake replay guard) plus per-session
    state machines that walk attest → hello → established, then accept
    contract binding, chunked uploads, execute and fetch.  The engine is
    transport-agnostic — {!handle_frame} maps one inbound frame to its
    reply frames — and only the {!Reactor} calls it: the socket loop,
    the simulator and the in-process loopback transport all reach it
    through one.

    Join execution reuses the decomposed {!Ppj_core.Service} handlers, so
    a networked join and an in-process [Service.run] produce byte-identical
    deliveries for the same seed and config. *)

module Channel = Ppj_scpu.Channel

type t

val create :
  ?registry:Ppj_obs.Registry.t ->
  ?recorder:Ppj_obs.Recorder.t ->
  ?logger:Ppj_obs.Log.t ->
  ?seed:int ->
  ?max_contracts:int ->
  ?faults:Ppj_fault.Injector.t ->
  ?checkpoint_every:int ->
  ?store:Ppj_store.Store.t ->
  mac_key:string ->
  unit ->
  t
(** [mac_key] is the long-term identity key the handshake MACs are rooted
    in (what the attestation chain certifies); [seed] drives the
    service-side handshake exponents deterministically.  Long-lived
    server state is bounded: the handshake replay guard remembers the
    last 4096 hellos, and at most
    [max_contracts] (default 1024) distinct contracts may be registered —
    binding a fresh contract beyond that is answered with a typed
    [Contract_rejected] error rather than growing without limit.

    [recorder] arms the flight recorder: the server opens per-message
    spans ("handshake", "execute" — never spans that straddle messages,
    since the reactor interleaves sessions on one recorder), threads
    the recorder into {!Ppj_core.Service.execute_join}, and adopts the
    trace context a v3 client stamps into its [Attest_request] so both
    processes' spans share one trace.  Each session keeps its own
    context, re-adopted before each of its frames is handled, so the
    spans of interleaved sessions carry their own sessions' trace ids
    (a session that sent none runs under the server's own id).  [logger] (default
    {!Ppj_obs.Log.null}) receives structured key=value lines for session
    lifecycle, handshakes, contract binding, uploads, joins and fetches.

    [faults] arms coprocessor fault injection for every join this server
    runs and [checkpoint_every] sealed recovery checkpoints.  An injected
    coprocessor crash answers the [Execute] with a typed [Unavailable]
    error and stashes the crashed instance on the session; the client's
    retry of the same config resumes it from the last sealed checkpoint
    rather than starting over.  Detected tampering is terminal: a typed
    [Internal] "tamper detected" error, never a wrong answer.

    [store] makes the server durable.  On create, registered contracts
    and accepted submissions are replayed from it; thereafter every
    state-changing request is acknowledged only after its record is
    journalled and fsynced (a sealed store sheds such requests with a
    typed [Unavailable]).  Join checkpoints and the NVRAM version are
    persisted as they are sealed, so a SIGKILLed server restarted on the
    same state directory resumes a mid-flight join from the durable
    checkpoint when the client retries — and an already-finished join's
    cached oTuple stream is re-sealed to the retrying client's fresh
    session keys.  A durable checkpoint that fails resume validation
    (stale version, doctored image) is quarantined and the join is
    recomputed from the pristine durable submissions: slower, never
    wrong. *)

val registry : t -> Ppj_obs.Registry.t

val recorder : t -> Ppj_obs.Recorder.t option

val sessions_closed : t -> int

val sessions_active : t -> int
(** Sessions opened and not yet closed. *)

val add_prescrape : t -> (unit -> unit) -> unit
(** Register a hook run before every telemetry scrape ({!scrape}); the
    reactor uses this to refresh its connection/queue-depth gauges
    without the server depending on it. *)

val scrape : t -> Wire.stats_info * Ppj_obs.Snapshot.t
(** One telemetry scrape: run the prescrape hooks, stamp the
    build/uptime/session gauges and (when durable) the [store.*] health
    gauges, and return the health fields plus a snapshot of the
    server's own registry: nothing another server or session in the
    same process recorded.  The registry holds the latest computed
    join's padding ([oblivious.sort.pad_slots{region}], with [shard=k]
    for a slice); a series an earlier join set reads 0 once a later
    join did not pad it.  This is what a wire [Stats_request] is
    answered from, in {e any} session phase. *)

val health_json : t -> string
(** One-line JSON health document ([status]/[version]/[uptime_seconds]/
    [sessions_active]/[store]) for the reactor's pre-attestation health
    probe socket.  [status] is ["ready"] unless the durable store sealed
    itself read-only (["degraded"]). *)

type session

val open_session : t -> session

val close_session : t -> session -> unit

val handle_frame : t -> session -> Frame.t -> Frame.t list
(** Process one inbound frame, returning the frames to send back (often
    one; zero for streamed upload chunks; a typed [Error] reply on any
    protocol violation — the connection survives unless the transport
    drops it).  Every reply frame echoes the request frame's sequence
    number, so clients can match replies to requests and discard retry
    duplicates. *)

(** Serving connections lives in {!Reactor}: it wraps a [t] with
    readiness-driven per-connection state machines, bounded outbound
    queues, admission control and idle eviction, and provides the
    Unix-domain-socket loop ([Reactor.serve_unix]) on top. *)
