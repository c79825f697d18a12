(** Client-side byte transports.

    A transport moves opaque byte chunks; framing and message semantics
    live above it ({!Frame}, {!Wire}, {!Client}).  Both implementations
    reach the server through a {!Reactor}, the code every deployed
    server runs:

    - {!loopback} — a deterministic in-process connection admitted
      through a reactor.  Nothing sleeps: tests of retry and timeout
      logic run in microseconds and are exactly reproducible.  Takes a
      {!Wiretap} observing every frame and a {!Ppj_fault.Injector} for
      frame faults.
    - {!connect_unix} — a Unix-domain-socket connection to a process
      running [Reactor.serve_unix], with EINTR-safe {!Poller}-based
      receive timeouts. *)

exception Closed
(** Raised by [recv]/[send] when the peer has gone away. *)

type t = {
  send : string -> unit;
  recv : timeout:float -> string option;
      (** Next chunk of bytes, or [None] if nothing arrived within
          [timeout] seconds. *)
  close : unit -> unit;
  peer : string;  (** description for error messages *)
}

val loopback : ?tap:Wiretap.t -> ?faults:Ppj_fault.Injector.t -> Reactor.t -> t
(** One client connection admitted through [reactor] (its decoder,
    bounded outbound queue and admission control, exactly as
    [Reactor.serve_unix] drives them).  Every frame, in both directions,
    passes one gate: [tap] records it first (loss happens on the wire,
    where the adversary already looked), then the plan's frame events —
    drop, duplicate, one-slot delay, payload corruption — decide its
    fate.  Replies are collected as the reactor queues them and handed
    out one frame per [recv]; the plan's [timeout\@recv] events make
    [recv] report silence.  Once the reactor closes the connection
    (admission refused, queue shed) and its goodbye is read, [send] and
    [recv] raise {!Closed}, as over a socket.  Use one reactor per server and call this
    once per party, so the reactor counts every connection
    ([net.server.conns.live], admission). *)

val fused : ?after_sends:int -> t -> t * (unit -> unit)
(** A kill switch over any transport, for kill-one-shard chaos: the
    returned thunk (or reaching [after_sends] successful sends) blows
    the fuse, after which sends raise {!Closed} and receives report
    silence — exactly a peer process dying mid-session.  [close] still
    reaches the inner transport so resources are reclaimed. *)

val connect_unix : path:string -> unit -> (t, string) result
