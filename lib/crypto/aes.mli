(** AES-128 block cipher (FIPS-197), implemented from scratch.

    The IBM 4758/4764 coprocessors provide a hardware block cipher; the
    simulator uses this software AES both as the OCB tweakable core and as
    the PRF underlying random-order generation.  The S-box is derived from
    GF(2{^8}) inversion at initialisation time rather than pasted as a
    table, and the implementation is validated against the FIPS-197 test
    vectors in the test suite.

    The hot path is a 32-bit T-table cipher: SubBytes, ShiftRows and
    MixColumns fuse into four u32 table lookups per column per round
    (one 1024-entry table per direction), operating on four ints loaded
    as big-endian words instead of a 16-int state array (see
    DESIGN.md).  The original byte-wise implementation is retained as
    {!Reference} and cross-checked property-wise in the test suite. *)

type key
(** Expanded AES-128 key schedule (11 round keys). *)

val expand : string -> key
(** [expand raw] expands a 16-byte raw key.  @raise Invalid_argument on a
    wrong-sized key. *)

val expand_bytes : bytes -> pos:int -> key
(** [expand_bytes raw ~pos] expands the 16 bytes at [raw.[pos..pos+15]]
    without an intermediate string copy (the MMO hash expands a fresh key
    per block). *)

val encrypt : key -> Block.t -> Block.t

val decrypt : key -> Block.t -> Block.t

val encrypt_into : key -> src:bytes -> src_pos:int -> dst:bytes -> dst_pos:int -> unit
(** Encrypt the 16 bytes at [src.[src_pos..]] into [dst.[dst_pos..]]
    without allocating.  [src] and [dst] may be the same buffer (the
    block is loaded into registers before any byte is written).
    @raise Invalid_argument if either range is out of bounds. *)

val decrypt_into : key -> src:bytes -> src_pos:int -> dst:bytes -> dst_pos:int -> unit
(** Inverse of {!encrypt_into}, same aliasing guarantee. *)

(** The original byte-wise path (explicit SubBytes/ShiftRows/MixColumns
    passes over a 16-int state).  Kept as the oracle the T-table rounds
    are cross-checked against, and as the crypto bench's speedup
    baseline.  Shares {!key}: both paths use the identical schedule. *)
module Reference : sig
  val encrypt : key -> Block.t -> Block.t

  val decrypt : key -> Block.t -> Block.t
end
