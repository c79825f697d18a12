(** The requestor side of the wire protocol.

    A client owns one transport connection and walks the session
    lifecycle: {!attest} (fetch and verify the chain before entrusting
    the service with anything), {!handshake} (authenticated DH → session
    key), {!bind_contract}, {!upload} (chunked encrypted relation),
    {!execute} and {!fetch}.  Each step is one RPC with a receive
    timeout; steps the server handles idempotently (attest, contract,
    execute, fetch) are retried a bounded number of times under
    decorrelated jitter, the others fail fast.  Requests carry a strictly increasing sequence
    number that the server echoes in replies, so a retried RPC whose
    first reply was merely slow cannot desync the session: late
    duplicate replies are recognised by their concluded seq, counted
    under [net.client.stale.dropped], and discarded.  Every RPC records
    [net.client.*] metrics — latency histograms per RPC, retry and
    timeout counters, frame and byte counts — into the registry it was
    created with. *)

module Channel = Ppj_scpu.Channel
module Schema = Ppj_relation.Schema
module Relation = Ppj_relation.Relation
module Tuple = Ppj_relation.Tuple
module Service = Ppj_core.Service

type config = {
  recv_timeout : float;  (** seconds to wait for each reply *)
  max_retries : int;  (** extra attempts for idempotent RPCs *)
  backoff_base : float;  (** first retry sleep, and every later one's lower bound *)
  backoff_cap : float;  (** upper bound on any single retry sleep *)
  backoff_seed : int;
      (** Retry sleeps follow decorrelated jitter: each is
          [min cap (uniform base (prev * 3))] ([prev = 0] before the
          first, so the first is exactly [backoff_base]).  A fleet of
          clients retrying the same outage spreads out instead of
          hammering the server in synchronised waves.  [0] draws
          per-process entropy at {!create}; a nonzero seed pins the
          schedule for deterministic tests and load experiments. *)
  sleep : float -> unit;  (** injectable for deterministic tests *)
}

val default_config : config
(** 2 s timeout, 3 retries, 50 ms base backoff under entropy-seeded
    decorrelated jitter capped at 2 s, [Unix.sleepf]. *)

type t

val create :
  ?config:config -> ?registry:Ppj_obs.Registry.t -> ?recorder:Ppj_obs.Recorder.t -> Transport.t -> t
(** With a [recorder], the client stamps its trace context into the
    session's [Attest_request] (so the server's spans join this trace)
    and opens spans around the lifecycle steps: "handshake" (attest +
    hello, via the conveniences below), "upload" (the whole chunk
    stream), "execute" and "fetch". *)

val registry : t -> Ppj_obs.Registry.t

val recorder : t -> Ppj_obs.Recorder.t option

val attest : t -> (unit, string) result
(** Fetch the attestation chain and verify it against
    {!Service.attested_layers} — refuse to talk to an unattested
    service. *)

val stats : t -> (Wire.stats_info * Ppj_obs.Snapshot.t, string) result
(** One telemetry scrape: send [Stats_request] (idempotent, retried),
    decode the reply's snapshot JSON.  Works in any session phase —
    before {!attest}, mid-upload, after a join — because the server
    answers it outside the session lifecycle. *)

val handshake :
  t -> rng:Ppj_crypto.Rng.t -> id:string -> mac_key:string -> (unit, string) result

val bind_contract : t -> Channel.contract -> (unit, string) result

val upload : t -> schema:Schema.t -> Relation.t -> (unit, string) result
(** Submit a relation under the bound contract: encrypt with
    {!Channel.submit}, then stream the envelope in
    {!Wire.upload_chunks}. *)

val execute : t -> Service.config -> (int, string) result
(** Ask the service to run the join; returns the transfer count.
    Requires this session to be the contract's recipient. *)

val fetch : t -> (Schema.t * Tuple.t list, string) result
(** Download and open the sealed result: joined schema plus the decoded
    real tuples (decoys dropped). *)

val close : t -> unit

(** {2 Whole-lifecycle conveniences} *)

val submit_relation :
  t ->
  rng:Ppj_crypto.Rng.t ->
  id:string ->
  mac_key:string ->
  contract:Channel.contract ->
  schema:Schema.t ->
  Relation.t ->
  (unit, string) result
(** attest → handshake → bind → upload, as a data provider. *)

val fetch_result :
  t ->
  rng:Ppj_crypto.Rng.t ->
  id:string ->
  mac_key:string ->
  contract:Channel.contract ->
  Service.config ->
  (Schema.t * Tuple.t list, string) result
(** attest → handshake → bind → execute → fetch, as the recipient. *)
