(** Message codec: the grammar spoken over {!Frame}s.

    One session walks the lifecycle of §3.2–§3.3.3: fetch and verify the
    service's attestation chain, run the authenticated Diffie–Hellman
    handshake, bind a digital contract, upload the contract-bound
    encrypted relation in chunks, request execution, and download the
    sealed result.  Control-plane payloads that §3.3.3 would have inside
    the authenticated channel — the contract, the schema, the execute
    config — travel OCB-sealed under the session key, so the only
    plaintext on the wire is message tags, lengths, handshake public
    values, and party identifiers.  See DESIGN.md ("Wire protocol") for
    the byte-level grammar and the versioning rule. *)

module Channel = Ppj_scpu.Channel
module Attestation = Ppj_scpu.Attestation
module Schema = Ppj_relation.Schema
module Service = Ppj_core.Service

val version : int
(** Protocol version, carried by [Attest_request] — the first frame of
    every session.  A server speaking a different version answers with a
    typed [Unsupported_version] error and nothing else. *)

type error_code =
  | Unsupported_version
  | Bad_state  (** message arrived in a phase that does not expect it *)
  | Auth_failed  (** handshake MAC, replay, or submission tag failure *)
  | Contract_rejected  (** digest mismatch, or party not named by it *)
  | Missing_submission  (** execute before every provider uploaded *)
  | Malformed  (** undecodable payload *)
  | Internal
  | Unavailable
      (** transient server-side failure (e.g. the coprocessor crashed
          mid-join); an idempotent request may be retried and can
          succeed — the join resumes from its last sealed checkpoint *)
  | Shard_unavailable
      (** a shard coordinator could not complete the fan-out: one of the
          shard servers is down or refused.  Not retried by the per-shard
          client — recovery (retry the surviving shards, or refuse) is
          the coordinator's decision *)

val error_code_to_string : error_code -> string

type store_status =
  | Store_none  (** the server runs without a durable store *)
  | Store_open of { epoch : int; sealed : bool }
      (** durable store at compaction generation [epoch]; [sealed] once
          it went read-only (ENOSPC / short write) and state-changing
          requests are being shed *)

type stats_info = {
  server_version : string;
  wire_version : int;
  uptime_seconds : float;
  sessions_active : int;  (** sessions opened and not yet closed *)
  sessions_closed : int;
  conns_live : int;  (** reactor connections currently registered *)
  queue_bytes : int;  (** bytes sitting in reactor outbound queues *)
  store : store_status;
  ready : bool;
      (** liveness+readiness in one bit: accepting frames and (if a
          store is configured) not sealed read-only *)
}
(** Health fields of a [Stats_reply], separate from the metric snapshot
    so probes can gate on them without parsing JSON. *)

type msg =
  | Attest_request of { version : int; ctx : Ppj_obs.Trace_ctx.t option }
      (** [ctx] (v3) lets the client stamp its flight-recorder trace
          context into the session; the server adopts it so both sides'
          spans share one trace.  Decoding accepts the bare v2 payload
          (no context) for compatibility. *)
  | Attest_chain of Attestation.certificate list
  | Hello of Channel.Handshake.hello
  | Hello_reply of Channel.Handshake.reply
  | Contract of { sealed : string }  (** sealed contract *)
  | Contract_ok
  | Upload_begin of { sealed_schema : string; chunks : int }
  | Upload_chunk of { seq : int; bytes : string }
  | Upload_done
  | Upload_ok
  | Execute of { sealed_config : string }
  | Execute_ok of { transfers : int }
  | Fetch
  | Result of { sealed_schema : string; sealed_body : string }
  | Error of { code : error_code; message : string }
  | Stats_request
      (** (v4) admin scrape: answered in {e any} session phase, before
          attestation, outside the join lifecycle — a scrape never
          blocks or perturbs a join and needs no handshake, because the
          reply carries only aggregate shape-public telemetry *)
  | Stats_reply of { info : stats_info; snapshot : string }
      (** [snapshot] is the server's registry rendered as canonical
          snapshot JSON (schema [ppj.obs/1]) *)

val to_frame : ?seq:int -> msg -> Frame.t
(** [seq] (default 0) stamps the frame's sequence number: requests carry
    a client-chosen strictly increasing value, replies echo the seq of
    the request they answer. *)

val of_frame : Frame.t -> (msg, string) result

val tag_of : msg -> int

val tag_name : int -> string
(** Human-readable tag, for logs and the adversary's shape view. *)

val pp : Format.formatter -> msg -> unit
(** Tag plus payload size only — never message contents. *)

(** {2 Plain codecs for sealed payloads}

    These serialise the control-plane records to the byte strings that
    are then passed through {!Channel.seal}. *)

val contract_to_string : Channel.contract -> string
val contract_of_string : string -> (Channel.contract, string) result

val schema_to_string : Schema.t -> string
val schema_of_string : string -> (Schema.t, string) result

val config_to_string : Service.config -> string
val config_of_string : string -> (Service.config, string) result

val submission_to_string : Channel.submission -> string
val submission_of_string : string -> (Channel.submission, string) result

val upload_chunks : string -> string list
(** A submission envelope cut into the 1 KiB pieces that both clients
    ({!Client}, {!Flow}) send as [Upload_chunk]s, in order; an empty
    envelope is one empty piece. *)
