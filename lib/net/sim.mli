(** Deterministic simulated transport: a seeded scheduler interleaving
    N in-process sessions against one {!Reactor}.

    Every source of nondeterminism the real socket loop has — which
    session's bytes arrive next, how the kernel splits writes into
    reads, when the server's replies reach each client — is replaced by
    draws from one seeded {!Ppj_crypto.Rng}: each step picks a session
    and moves a random-length slice of bytes in one direction (client →
    reactor or reactor → client), so partial frames, interleaved
    uploads and retry races all occur, identically, on every run with
    the same seed.  A concurrency bug found at seed [s] is a replayable
    unit test, not a flake.

    Virtual time advances a millisecond per step and is what the
    reactor's idle eviction sees, so timeout behaviour is simulated
    too, deterministically. *)

type result = {
  outcomes : Flow.outcome option list;
      (** per flow, in input order; [None] = still unfinished when
          the step budget ran out (a hang, made visible) *)
  steps : int;  (** scheduler steps actually taken *)
}

val run :
  ?limits:Reactor.limits ->
  seed:int ->
  server:Server.t ->
  Flow.t list ->
  result
(** Drive the flows to completion (or 500_000 steps) against a fresh
    reactor over [server].  One step moves at most 64 bytes, so frames
    arrive through many partial deliveries.  Deterministic: same seed, same
    server configuration and same flows give byte-identical schedules,
    outcomes, and server flight-recorder timelines. *)
