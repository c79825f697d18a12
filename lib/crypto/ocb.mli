(** OCB authenticated encryption (Rogaway–Bellare–Black, the scheme chosen in
    §3.3.3 of the paper).

    OCB provides both privacy and authenticity with [m + 2] block-cipher
    calls for an [m]-block message, which is why the paper prefers it over
    XCBC and IAPM.  Offsets follow the paper's recurrence
    [Z(0) = E_k(I xor E_k(0^n))], [Z(i) = f(Z(i-1), i)] with
    [f(z, i) = z xor L(ntz i)]; {!offset_sequential} walks the recurrence
    (counting [f] applications, the quantity analysed in §4.4.1 for
    non-sequential access during oblivious sorting) and {!offset_direct}
    computes the same offset in closed form via the Gray-code identity.

    A message runs on one of two paths, chosen by {!Aes.hardware} and
    nothing else:
    - where the CPU has the AES instructions, one C call per seal or
      open ([lib/crypto/aes_stubs.c]) walks the offsets, whitens the
      blocks, sums the checksum, pads the final block and computes the
      tag, running the cipher calls for the message blocks and the final
      pad interleaved, as the paper's reason for choosing OCB allows:
      they do not depend on each other;
    - elsewhere, the OCaml core, which stays reachable as {!Portable} on
      every CPU and is the oracle the C path is tested against.
    Both produce the same bytes and charge the same counters: [m + 2]
    cipher calls and [m] [f] applications per [m]-block message. *)

type key

val key_of_string : string -> key
(** 16-byte raw key. *)

val tag_length : int
(** Authentication-tag length in bytes (16; the paper's first-τ-bits
    truncation with τ = 128). *)

val encrypt : key -> nonce:string -> string -> string
(** [encrypt k ~nonce msg] returns [ciphertext ^ tag] where [ciphertext]
    has the length of [msg].  The nonce must be 16 bytes and must be fresh
    per message ("T generates a fresh nonce for re-encrypting output tuples
    at each stage", §4.4.1). *)

val decrypt : key -> nonce:string -> string -> string option
(** Returns [None] if the authentication tag does not verify — the
    tamper-detection step that reduces a malicious adversary to an
    honest-but-curious one (§3.3.1).  The tag comparison is constant
    time (XOR fold over all bytes). *)

(** {2 Allocation-free hot path}

    The string API above is a thin wrapper over these: the coprocessor
    seals/unseals every tuple transfer, so the core works in caller
    supplied (reusable) [Bytes] buffers at explicit offsets — no
    per-block substring or xor allocations, offsets maintained in
    place.  Both produce byte-identical ciphertext (the pinned KATs in
    the test suite cover both paths). *)

val seal_into :
  key ->
  nonce:string ->
  src:bytes ->
  src_pos:int ->
  src_len:int ->
  dst:bytes ->
  dst_pos:int ->
  unit
(** Seal [src_len] plaintext bytes at [src.[src_pos..]] into
    [src_len + tag_length] bytes at [dst.[dst_pos..]] (ciphertext then
    tag).  [src] and [dst] may be the same buffer when
    [src_pos = dst_pos].  @raise Invalid_argument on out-of-bounds
    ranges or a non-16-byte nonce. *)

val open_into :
  key ->
  nonce:string ->
  src:bytes ->
  src_pos:int ->
  src_len:int ->
  dst:bytes ->
  dst_pos:int ->
  bool
(** Open [src_len] ciphertext-plus-tag bytes at [src.[src_pos..]],
    writing [src_len - tag_length] plaintext bytes at [dst.[dst_pos..]].
    Returns [false] (leaving [dst] unspecified) if the tag does not
    verify — checked in constant time — or if [src_len < tag_length].
    Aliasing as for {!seal_into}. *)

val nonce_size : int
(** Nonce length in bytes (16). *)

val seal_blob : key -> bytes -> pos:int -> len:int -> unit
(** [seal_blob k buf ~pos ~len] seals, in place, the stored-blob layout
    [nonce | plaintext | tag space] at [buf.[pos..]]: the [len] bytes
    after the 16-byte nonce are encrypted under it and the tag is
    written after them.  The same bytes as {!seal_into} with that nonce,
    without copying the nonce out of the buffer.
    @raise Invalid_argument if the blob does not fit in [buf]. *)

val open_blob :
  key -> src:bytes -> src_pos:int -> src_len:int -> dst:bytes -> dst_pos:int -> bool
(** Inverse of {!seal_blob}: opens the [src_len]-byte blob
    [nonce | ciphertext | tag] at [src.[src_pos..]], writing
    [src_len - nonce_size - tag_length] plaintext bytes at
    [dst.[dst_pos..]].  [false] exactly when {!open_into} with that
    nonce would return [false], or when the blob is shorter than a
    nonce. *)

(** The OCaml core, whichever path the functions above take: the path
    on CPUs without the AES instructions, and the oracle the C path is
    tested against.  Same contracts, bytes and counters as {!seal_into},
    {!open_into}, {!seal_blob} and {!open_blob}. *)
module Portable : sig
  val seal_into :
    key ->
    nonce:string ->
    src:bytes ->
    src_pos:int ->
    src_len:int ->
    dst:bytes ->
    dst_pos:int ->
    unit

  val open_into :
    key ->
    nonce:string ->
    src:bytes ->
    src_pos:int ->
    src_len:int ->
    dst:bytes ->
    dst_pos:int ->
    bool

  val seal_blob : key -> bytes -> pos:int -> len:int -> unit

  val open_blob :
    key -> src:bytes -> src_pos:int -> src_len:int -> dst:bytes -> dst_pos:int -> bool
end

val offset_sequential : key -> nonce:string -> int -> Block.t
(** [offset_sequential k ~nonce i] computes Z[i] (i ≥ 1) by applying
    [f(·,·)] repeatedly from Z[0], charging {!f_applications}. *)

val offset_direct : key -> nonce:string -> int -> Block.t
(** Closed-form Z[i]; agrees with {!offset_sequential} (property-tested). *)

val f_applications : key -> int
(** Cumulative count of [f(·,·)] applications on this key, used to validate
    the §4.4.1 extra-cost analysis of non-sequential decryption. *)

val reset_f_applications : key -> unit

val block_cipher_calls : key -> int
(** Cumulative AES invocations (the paper's m + 2 per message claim). *)

val reset_block_cipher_calls : key -> unit
