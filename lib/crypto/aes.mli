(** AES-128 block cipher (FIPS-197): key schedule and software rounds
    implemented from scratch, hardware rounds where the CPU has them.

    The IBM 4758/4764 coprocessors seal transfers with a hardware crypto
    engine; the simulator uses AES both as the OCB tweakable core and as
    the PRF underlying random-order generation.  The S-box is derived from
    GF(2{^8}) inversion at initialisation time rather than pasted as a
    table, and the implementation is validated against the FIPS-197 test
    vectors in the test suite.

    The key schedule is expanded in OCaml.  The block rounds take one of
    two paths, chosen once at module initialisation from CPUID:
    - where the CPU has the AES instructions (AES-NI), a C stub runs
      AESENC/AESDEC over the schedule ({!hardware} is [true]) — the
      closer analogue of the 4758's engine, and constant-time;
    - elsewhere, a 32-bit T-table cipher: SubBytes, ShiftRows and
      MixColumns fuse into four u32 table lookups per column per round
      (one 1024-entry table per direction), operating on four ints
      loaded as big-endian words (see DESIGN.md).
    Nothing else selects the path.  The T-table rounds stay reachable as
    {!Table} on every CPU, and the original byte-wise implementation is
    retained as {!Reference}; the test suite cross-checks all three. *)

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

val hardware : bool
(** [true] when {!encrypt_into} and {!decrypt_into} (and so everything
    built on them) run on the CPU's AES instructions, [false] when they
    run the T-table rounds. *)

val round_key_bytes : key -> bytes
(** The encryption schedule as the AES-instruction stubs read it: 176
    bytes, round r at offset 16 r.  The key's own bytes, not a copy, for
    {!Ocb}'s message stubs; callers must not write to them. *)

val inverse_round_key_bytes : key -> bytes
(** The equivalent-inverse schedule in the same layout, the form AESDEC
    expects: the bytes {!decrypt_into} uses, built on first use. *)

(** The T-table rounds, whichever path {!encrypt_into} takes: the path
    on CPUs without the AES instructions, and the reference the hardware
    path is tested against.  Same contract as {!encrypt_into}. *)
module Table : sig
  val encrypt_into : key -> src:bytes -> src_pos:int -> dst:bytes -> dst_pos:int -> unit

  val decrypt_into : key -> src:bytes -> src_pos:int -> dst:bytes -> dst_pos:int -> unit
end

val sbox : int -> int
(** [sbox x] is the S-box entry S[x], for [x] in 0..255 (exposed so the
    test suite can check the table against its definition). *)

val inv_sbox : int -> int
(** The inverse S-box entry S{^-1}[x]. *)

(** The original byte-wise path (explicit SubBytes/ShiftRows/MixColumns
    passes over a 16-int state).  Kept as the oracle the other paths
    are cross-checked against, and as the crypto bench's speedup
    baseline.  Shares {!key}: all paths use the identical schedule. *)
module Reference : sig
  val encrypt : key -> Block.t -> Block.t

  val decrypt : key -> Block.t -> Block.t
end
