(** Maximal-length linear feedback shift registers (§5.2.3).

    Algorithm 6 must visit every [iTuple] of the virtual cartesian product
    exactly once in a random-looking order without materialising a
    permutation.  An MLFSR with [l] internal states cycles through every
    value in [1 .. 2^l - 1] exactly once; indices outside the target range
    are discarded. *)

type t

val create : degree:int -> seed:int -> t
(** [create ~degree ~seed] builds an MLFSR over [degree] bits
    (2 ≤ degree ≤ 32) seeded with a nonzero state derived from
    [seed].  @raise Invalid_argument on an unsupported degree. *)

val degree_for : int -> int
(** [degree_for n] is the smallest degree [l] with [2^l - 1 >= n]. *)

val next : t -> int
(** Next register value, in [1 .. 2^degree - 1].  The sequence is a
    permutation of that range with period [2^degree - 1]. *)

val period : t -> int

val random_order : n:int -> seed:int -> int Seq.t
(** [random_order ~n ~seed] enumerates [0 .. n-1] exactly once, in MLFSR
    order, discarding out-of-range register values as the paper
    prescribes. *)
