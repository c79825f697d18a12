(** Operating parameters of the join algorithms.

    Chapter 4 parameterises by [|A|], [|B|], the maximum match
    multiplicity [N], and the coprocessor memory [M] (with [delta] tuples
    reserved for bookkeeping); Chapter 5 by the cartesian-product size
    [L = |D|], the output size [S], and [M]. *)

val gamma : n:int -> m:int -> ?delta:int -> unit -> int
(** γ = max(1, ⌈N/(M−δ)⌉): passes over B per tuple of A in Algorithm 2. *)

val blk : n:int -> gamma:int -> int
(** ⌈N/γ⌉: output tuples per pass in Algorithm 2. *)

val alpha : n:int -> b:int -> float
(** α = N/|B| (§4.6). *)

val algorithm2_partition :
  n:int -> m:int -> ?delta:int -> unit -> [ `Stream_b of int * int | `Block_a of int * int * int ]
(** §4.4.3 memory-partition selection.  [`Stream_b (fb, fj)] is Case 1
    (N > F): keep one A tuple, [fb] B slots and [fj] joined slots.
    [`Block_a (fa, fb, fj)] is Case 2 (N ≤ F): hold [fa = Q] A tuples and
    all their matches. *)

val segments : l:int -> n_star:int -> int
(** ⌈L/n*⌉: Algorithm 6 segment count. *)

val scans : s:int -> m:int -> int
(** ⌈S/M⌉: Algorithm 5 write cycles. *)

val check_slice : k:int -> p:int -> unit
(** @raise Invalid_argument unless [0 <= k < p]. *)

val slice : n:int -> k:int -> p:int -> int * int
(** [[kn/p, (k+1)n/p)]: slice [k] of [p] of [n] iTuples, positions or
    result ranks; [~k:0 ~p:1] is the whole.  Checks as {!check_slice}. *)
