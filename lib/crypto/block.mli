(** 128-bit cipher blocks and the GF(2{^128}) arithmetic OCB needs.

    A block is an immutable 16-byte string.  The field is GF(2{^128})
    with the OCB reduction polynomial x{^128} + x{^7} + x{^2} + x + 1. *)

type t = private string

val size : int
(** Block size in bytes (16). *)

val zero : t

val of_string : string -> t
(** [of_string s] validates that [s] has {!size} bytes. *)

val to_string : t -> string

val of_bytes : bytes -> t

val xor : t -> t -> t

val double : t -> t
(** Multiplication by x in GF(2{^128}) ("L(i+1) from L(i)" in OCB). *)

val double_into : bytes -> src:int -> dst:int -> unit
(** [double_into b ~src ~dst] writes {!double} of the block at
    [b.[src..src+15]] to [b.[dst..dst+15]] without allocating; the two
    may be the same block.  @raise Invalid_argument if either is out of
    bounds. *)

val halve : t -> t
(** Multiplication by x{^-1} in GF(2{^128}) (OCB's L(-1)). *)

val of_int : int -> t
(** [of_int n] encodes [n] in the low-order bytes, big-endian. *)

val ntz : int -> int
(** Number of trailing zeros of a positive integer. *)

val equal : t -> t -> bool

val ct_equal : string -> string -> bool
(** Constant-time equality for secret values (authentication tags, MACs):
    XOR-folds every byte pair so timing reveals only the lengths, which
    are public.  Accepts plain strings so callers can compare tags and
    MACs that are not 16 bytes; blocks coerce via the private-string
    equality [(a :> string)]. *)

val pp : Format.formatter -> t -> unit
(** Hexadecimal rendering. *)
