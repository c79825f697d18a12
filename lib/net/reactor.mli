(** The server core as an explicit reactor.

    A {!t} wraps a {!Server.t} protocol engine with everything the old
    select loop kept implicit: per-connection state machines driven by
    readiness events, bounded per-connection outbound queues with
    backpressure, admission control, and idle eviction.  The reactor
    itself never touches a socket — it consumes bytes via {!feed} and
    produces bytes via {!pending}/{!wrote} — so the same engine is
    driven by three harnesses: the real [poll(2)] loop ({!serve_unix}),
    the seeded deterministic scheduler ({!Sim}), and the in-process
    transport every test, soak and bench session uses
    ({!Transport.loopback}).

    Overload never hangs and never grows without bound; it sheds:

    - {b Admission}: beyond [max_conns] live connections, a new
      connection gets no session.  Its first decoded frame is answered
      with a typed [Unavailable] error (echoing that frame's seq so the
      client's RPC concludes) and the connection closes once the reply
      drains.
    - {b Outbound queue}: replies queue per connection, whole frames at
      a time.  A connection whose peer stops reading while replies
      accumulate past [max_queue_bytes] has its undelivered frames
      dropped (except a partially-written head, preserving framing), is
      handed a typed [Unavailable], and closes.  Above
      [high_water_bytes] the reactor additionally stops reading from
      that connection ({!wants_read} goes false) so a slow reader
      backpressures its own requests instead of ballooning the queue.
    - {b Idleness}: a connection that completes no frame for
      [idle_timeout] seconds of reactor time is evicted via the same
      typed-[Unavailable]-then-close path.  The clock only advances on
      {e decoded frames}, so both silent clients and slowloris clients
      trickling partial-frame bytes fall to the same sweep.

    All shed/eviction events are counted in the server's registry:
    [net.server.admission.shed], [net.server.overload.shed],
    [net.server.evicted.idle], [net.server.evicted.malformed], with the
    live-connection count in the [net.server.conns.live] gauge. *)

type limits = {
  max_conns : int;  (** admission cap on live connections *)
  max_queue_bytes : int;  (** per-connection outbound hard cap *)
  high_water_bytes : int;  (** stop reading a connection above this *)
  idle_timeout : float;  (** seconds without a decoded frame *)
}

val default_limits : limits
(** 1024 connections, 8 MiB queue cap, 1 MiB high water, 30 s idle. *)

type t

val create : ?limits:limits -> Server.t -> t

val server : t -> Server.t

val live : t -> int
(** Connections currently admitted (refused connections excluded). *)

type conn

val peer : conn -> string

val connect : t -> now:float -> peer:string -> conn
(** Register a new connection.  Above [max_conns] the connection is
    created in refusing mode (see admission control above) and {!live}
    does not grow. *)

val feed : t -> conn -> now:float -> string -> unit
(** Bytes arrived from the peer: run the decoder, hand complete frames
    to the protocol engine, queue the replies.  Undecodable input queues
    a typed [Malformed] error and marks the connection closing.  Bytes
    fed to a closing connection are discarded. *)

val wants_read : conn -> bool
(** False once closing, and false while the outbound queue sits above
    the high-water mark (backpressure). *)

val wants_write : conn -> bool

val pending : conn -> (string * int) option
(** The queue head and the offset already written, or [None] when
    drained.  Write any prefix of the remainder, then call {!wrote}. *)

val wrote : conn -> int -> unit
(** [n] more bytes of the current head reached the wire. *)

val finished : conn -> bool
(** Closing with nothing left to flush: the owner should {!close}. *)

val close : t -> conn -> unit
(** Idempotent.  Closes the server session (if one was admitted) and
    updates the live count. *)

val sweep : t -> now:float -> conn list
(** Run idle eviction.  Idle connections are marked closing with a
    typed [Unavailable] queued; connections that have already been
    closing for a further [idle_timeout] without draining are returned
    (in connection order) for the owner to {!close} and tear down. *)

val serve_unix :
  t ->
  path:string ->
  ?health_path:string ->
  ?tick:(now:float -> unit) ->
  ?backlog:int ->
  ?max_sessions:int ->
  ?stop:(unit -> bool) ->
  unit ->
  unit
(** Bind a Unix-domain socket at [path] (replacing any stale file) and
    drive the reactor from a {!Poller} readiness loop — one session per
    connection, no threads, EINTR-safe waits.  Accepts drain in a loop
    per readiness event (the listener is non-blocking), so a connect
    storm is admitted as fast as the loop turns.  Returns when [stop ()]
    becomes true or, with [max_sessions], once that many admitted
    sessions have closed; the socket file is removed on exit.

    [health_path] binds a second Unix socket serving the readiness /
    liveness probe: each accepted connection is written one line of
    {!Server.health_json} and closed immediately — no frames, no
    handshake, answered before any attestation, so an orchestrator can
    gate on it without wire credentials.  [tick] is invoked once per
    loop iteration with the loop's clock; the CLI uses it to persist
    periodic telemetry snapshots into the state directory.  The loop
    waits on [poll(2)] (see {!Poller}), which is what lets one process
    hold thousands of connections. *)
