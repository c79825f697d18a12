(** Open-loop multi-client load generator for the Unix-socket server.

    Drives [spec.sessions] concurrent recipient sessions — each a full
    attest → hello → contract → execute → fetch {!Flow} — against a
    server at [path], from one process, over non-blocking sockets and a
    [poll(2)]-backed {!Poller} (the select FD_SETSIZE cap is why this
    can exceed 1024 concurrent connections).  Arrivals are open-loop:
    session [i] is due at [i / rate] seconds regardless of how the
    server is coping, so queueing delay shows up in the latency numbers
    instead of silently throttling the offered load.

    Two provider uploads (the fixture relations) run first over the
    blocking {!Client}; every recipient session then executes the same
    contract and its delivered tuples are compared byte-for-byte against
    the fault-free {!Chaos.oracle}.  The verdict per
    session is exactly one of: correct delivery, typed refusal, wrong
    answer, or hung (no conclusion within [session_deadline]) — and the
    SLO claim of the loadtest bench is wrong = hung = 0.

    Latencies (scheduled arrival → conclusion, so connect queueing
    counts) land in the registry histogram [net.loadtest.session.seconds]
    with the headline numbers mirrored as [net.loadtest.*] gauges. *)

type spec = {
  sessions : int;  (** concurrent recipient sessions to drive *)
  rate : float;  (** arrivals per second; [infinity] = one burst *)
  session_deadline : float;  (** seconds before a session counts as hung *)
  wall_deadline : float;  (** hard stop for the whole run *)
  seed : int;  (** workload and handshake determinism *)
}

val default_spec : spec
(** 1200 sessions, burst arrival, 120 s session deadline, 600 s wall
    deadline, seed 42. *)

val mac_key : string
(** The identity key the fixture parties use; serve with this key. *)

type stats = {
  completed : int;  (** correct deliveries *)
  refused : int;  (** typed refusals (shed, evicted...) — safe *)
  wrong : int;  (** deliveries that mismatch the oracle — never ok *)
  hung : int;  (** sessions with no conclusion by their deadline *)
  max_concurrent : int;  (** peak simultaneously-open sessions *)
  wall_seconds : float;
  joins_per_sec : float;  (** completed / wall *)
  p50 : float;
  p95 : float;
  p99 : float;  (** session latency percentiles, seconds *)
}

val pp_stats : Format.formatter -> stats -> unit

val run :
  ?registry:Ppj_obs.Registry.t ->
  ?spec:spec ->
  path:string ->
  unit ->
  (stats, string) result
(** [Error _] only for harness failures (server unreachable, provider
    setup failed); overload, refusals and hangs are reported in the
    stats, not as errors. *)
