(** A client session as a non-blocking state machine.

    {!Client} drives the protocol with blocking RPCs — one session per
    thread of control.  The reactor's consumers need the opposite shape:
    thousands of sessions interleaved in one loop, none of them ever
    sleeping.  A {!t} is one session's protocol logic with the transport
    inverted out: it exposes the bytes it wants on the wire
    ({!pending}/{!sent}) and consumes whatever reply bytes arrive
    ({!on_bytes}), walking attest → hello → contract → goal exactly like
    {!Client} does, byte-compatible with the same server.

    The deterministic simulator ({!Sim}) and the open-loop load
    generator ({!Loadgen}) both drive sessions through this machine. *)

module Channel = Ppj_scpu.Channel
module Schema = Ppj_relation.Schema
module Relation = Ppj_relation.Relation
module Service = Ppj_core.Service

type goal =
  | Submit of { schema : Schema.t; relation : Relation.t }
      (** provider: upload one relation under the contract *)
  | Join of { config : Service.config }
      (** recipient: execute the join, fetch and open the delivery *)

type outcome =
  | Submitted
  | Delivered of string list
      (** the decoded tuples, {!Ppj_relation.Tuple.encode}d for
          comparison against an oracle *)
  | Refused of string  (** a typed server error or local failure *)

type t

val create :
  rng:Ppj_crypto.Rng.t ->
  id:string ->
  mac_key:string ->
  contract:Channel.contract ->
  goal ->
  t
(** [rng] drives the handshake exponent (determinism = seed the rng).
    A [Submit] uploads in {!Wire.upload_chunks}.  A [Join] re-issues
    [Execute] on a typed [Missing_submission] (providers still
    uploading) or [Unavailable] (overload shed, crashed coprocessor) up
    to 200 times before giving up with [Refused]. *)

val id : t -> string

val pending : t -> (string * int) option
(** Request bytes waiting for the wire: the buffer and the offset
    already consumed, or [None] when the session has nothing to send.
    Hand any prefix of the remainder to the transport, then {!sent}. *)

val sent : t -> int -> unit

val on_bytes : t -> string -> unit
(** Reply bytes arrived (any framing split). *)

val on_eof : t -> unit
(** The transport closed underneath the session: concludes with
    [Refused] unless already finished. *)

val outcome : t -> outcome option
(** [Some _] once the session has concluded; it sends nothing after. *)
