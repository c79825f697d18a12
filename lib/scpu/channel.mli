(** Party ↔ service sessions and digital contracts (§3.3.3).

    Each data provider shares an authenticated-encryption session key with
    [T] (the paper assumes Diffie–Hellman-style authenticated channels;
    the simulator pre-shares keys after a successful attestation check).
    A party prepends its relation with the contract ID and encrypts the two
    together as one OCB message; [T] — the arbiter of the contract —
    rejects submissions whose contract does not match its own copy. *)

module Relation = Ppj_relation.Relation
module Schema = Ppj_relation.Schema

type party

type role = Initiator | Responder
(** Which end of a session a party handle encrypts from.  Both ends of
    a DH-derived session hold the same key, so the two directions must
    never draw the same nonce: the responder's nonce PRF counters live in
    a range disjoint from the initiator's.  A single shared handle (the
    in-process simulator) only ever uses one counter and stays
    [Initiator]. *)

val party : id:string -> secret:string -> party
(** An [Initiator]-side handle; [secret] is the 16-byte session key
    shared with [T]. *)

(** Authenticated Diffie–Hellman session establishment (§3.3.3 cites [12]
    for the channels; the long-term MAC key models the identities the
    attestation chain certifies).  The toy 30-bit group is the documented
    {!Ppj_crypto.Group} substitution. *)
module Handshake : sig
  type hello = { id : string; gx : int; mac : string }
  (** Requestor → service: identity, g{^x}, and a MAC binding both.  The
      record is concrete so the wire layer ([lib/net]) can serialise it
      and tamper tests can forge arbitrary variants. *)

  type reply = { gy : int; mac : string }
  (** Service → requestor: g{^y} and a MAC over the whole transcript. *)

  val hello : Ppj_crypto.Rng.t -> id:string -> mac_key:string -> hello * int
  (** Returns the message and the secret exponent x to keep. *)

  val respond : Ppj_crypto.Rng.t -> mac_key:string -> hello -> (reply * party, string) result
  (** Service side: authenticate the hello, pick y, derive the session
      key, and return the [T]-side party handle. *)

  val finish : id:string -> mac_key:string -> exponent:int -> reply -> (party, string) result
  (** Requestor side: authenticate the reply and derive the same key. *)

  val corrupt_hello : hello -> hello
  (** Flip a bit of the offered public value (for tamper tests). *)

  type responder
  (** Replay guard: a service-side log of the hellos already answered.
      Bounded — at most [capacity] entries are remembered, oldest evicted
      first, so a long-lived server does not grow without limit.  The
      replay window therefore covers the last [capacity] handshakes. *)

  val responder : ?capacity:int -> unit -> responder
  (** [capacity] defaults to 4096 and must be positive. *)

  val respond_guarded :
    responder -> Ppj_crypto.Rng.t -> mac_key:string -> hello -> (reply * party, string) result
  (** Like {!respond}, but a hello that was already answered is rejected
      with ["handshake: replayed hello"] — an attacker capturing a valid
      hello cannot open a second session by replaying it. *)
end

type contract = {
  contract_id : string;
  providers : string list;  (** party ids supplying relations *)
  recipient : string;  (** id of the result recipient, possibly distinct *)
  predicate : string;  (** agreed predicate, by name *)
}

val contract_digest : contract -> string

type submission = { sender : string; nonce : string; ciphertext : string }
(** An encrypted relation in transit to the service.  Concrete so the
    wire layer can frame it; the payload is protected by OCB, so exposing
    the envelope grants an adversary nothing beyond what the host already
    observes. *)

val submit : party -> contract -> Relation.t -> submission

val accept :
  party ->
  contract ->
  Schema.t ->
  submission ->
  (Relation.t, string) result
(** [T]-side: authenticate, decrypt, check the embedded contract digest,
    and re-materialise the relation.  [party] names whose session key to
    use.  Returns [Error _] on tampering or contract mismatch. *)

val seal : party -> string -> string
(** Generic authenticated encryption of an arbitrary message under the
    session key: [nonce ^ ciphertext].  Used by the wire protocol for
    control-plane payloads (contracts, schemas, execute configs) that must
    not travel in the clear. *)

val open_sealed : party -> string -> (string, string) result
(** Inverse of {!seal}; [Error _] on truncation or tag failure. *)

val seal_result : party -> contract -> string list -> string
(** Encrypt the result oTuples to the recipient as one message. *)

val open_result : party -> contract -> string -> (string list, string) result
(** Recipient-side: decrypt, verify, split into oTuples, and drop decoys. *)
