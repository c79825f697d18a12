(** AES-based keyed pseudorandom function.

    Used for the random tags of the oblivious shuffle (§4.5.1 references
    [24]) and for deriving per-session keys and fresh nonces inside the
    coprocessor. *)

type t

val create : string -> t
(** [create raw] keys the PRF with a 16-byte key. *)

val of_seed : int -> t
(** Deterministic key derived from an integer seed (simulation use). *)

val block_at : t -> int -> Block.t
(** [block_at t i] = E_k(encode i); distinct [i] give independent-looking
    blocks. *)

val int_at : t -> int -> int
(** First 62 bits of {!block_at}, as a non-negative OCaml [int]. *)

val nonce_at : t -> int -> string
(** 16-byte nonce for message counter [i]. *)

val nonce_into : t -> int -> bytes -> pos:int -> unit
(** [nonce_into t i buf ~pos] writes {!nonce_at}[ t i] to
    [buf.[pos..pos+15]] without allocating (the coprocessor derives one
    per sealed transfer, straight into the blob it seals).
    @raise Invalid_argument if the range is out of bounds. *)
