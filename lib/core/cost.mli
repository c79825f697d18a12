(** Closed-form communication costs — every formula in the paper's
    performance analysis (§4.6, Table 5.1), in tuple transfers between
    [T] and [H] unless noted.

    These are the quantities behind Figures 4.1 and 5.1–5.4 and
    Tables 5.1/5.3; the measured counterparts come from running the actual
    algorithms and reading {!Report.t}. *)

(* Chapter 4 (two relations, maximum multiplicity N, memory M). *)

val alg1 : a:int -> b:int -> n:int -> float
(** |A| + 2N|A| + 2|A||B| + 2|A||B| (log₂ 2N)². *)

val alg1_variant : a:int -> b:int -> float
(** |A| + 2|A||B| + |A||B| (log₂ |B|)² (§4.4.2). *)

val alg2 : a:int -> b:int -> n:int -> m:int -> ?delta:int -> unit -> float
(** |A| + N|A| + γ|A||B|. *)

val alg3 : a:int -> b:int -> n:int -> ?presorted:bool -> unit -> float
(** |A| + N|A| + |B| (log₂ |B|)² + 3|A||B|; the sort term drops when the
    providers send sorted data. *)

val sfe_bits :
  b:int -> n:int -> w:int -> ?k0:int -> ?k1:int -> ?l:int -> ?nn:int -> unit -> float
(** §4.6.5 estimate of secure-function-evaluation communication in bits:
    8 l k₀ |B|² Gₑ(w) + 32 l k₁ |B| w + 2 n l N k₁ |B| w with
    Gₑ(w) = 2w; defaults k₀ = 64, k₁ = 100, l = nn = 50. *)

val alg1_bits : a:int -> b:int -> n:int -> w:int -> float
(** Algorithm 1's cost in bits (× tuple width) for the §4.6.5 comparison. *)

type ch4_algorithm = A1 | A2 | A3

val general_winner : b:int -> n:int -> m:int -> ch4_algorithm
(** Cheapest of Algorithms 1 and 2 (arbitrary predicates), |A| = |B|. *)

val equijoin_winner : b:int -> n:int -> m:int -> ch4_algorithm
(** Cheapest of Algorithms 1, 2 and 3 when the predicate is equality. *)

val alg2_at_gamma : a:int -> b:int -> n:int -> gamma:float -> float
(** Algorithm 2's cost with γ treated as a free parameter — the axes of
    Figure 4.1 (γ and α vary independently there). *)

val general_winner_at : b:int -> alpha:float -> gamma:float -> ch4_algorithm
(** Figure 4.1, general-join panel: winner at a free (α, γ) point. *)

val equijoin_winner_at : b:int -> alpha:float -> gamma:float -> ch4_algorithm
(** Figure 4.1, equijoin panel. *)

(* Chapter 5 (cartesian size L, output S, memory M). *)

val filter_cost : omega:int -> mu:int -> float
(** Oblivious-filter transfers at the optimal swap size Δ of Eqn. 5.1. *)

val alg4 : l:int -> s:int -> float
(** Eqn. 5.2. *)

val alg5 : l:int -> s:int -> m:int -> float
(** Eqn. 5.3: S + ⌈S/M⌉ L. *)

val alg6_given : l:int -> s:int -> m:int -> n_star:int -> float
(** Eqn. 5.7 for a known segment size. *)

val alg6 : l:int -> s:int -> m:int -> eps:float -> float
(** Eqn. 5.7 with n* solved from Eqn. 5.6; handles the M ≥ S (L + S) and
    ε = 0 (Algorithm 4 degeneration) corners per §5.3.3. *)

(* Sort-based extensions (exact transfer counts, not asymptotics). *)

val filter_exact : omega:int -> mu:int -> int
(** Exact ledgered transfers of {!Ppj_oblivious.Filter.run} at the
    default Δ*: buffer fill, sentinel padding, the initial padded sort
    and every refill round — term for term what the implementation's
    trace records, unlike the paper's approximation {!filter_cost}.
    Returns 0 when [mu = 0] or [omega = 0] (the filter is skipped). *)

val merge_exact : p:int -> l:int -> s:int -> int
(** Exact compare-exchanges of the shard merge ([Ppj_shard.Merge.run])
    over p Algorithm 4 slices of an l-pair product with S results.
    Slice k holds l_k = ⌊(k+1)l/p⌋ − ⌊kl/p⌋ pairs and delivers
    min(l_k, S) oTuples; every stream is padded to the longest,
    min(⌈l/p⌉, S), and the p streams together to a power of two, so the
    count is the bitonic network's on next_pow2(p · min(⌈l/p⌉, S)) slots.
    @raise Invalid_argument if [p < 1]. *)

val alg7 : a:int -> b:int -> s:int -> float
(** Exact transfers of {!Algorithm7.run}: staging the tagged union, the
    padded network sort, the PK–FK scan and the oblivious filter.
    @raise Invalid_argument if [a < 1], [b < 1] or [s < 0]. *)

val alg8 : a:int -> b:int -> s:int -> float
(** Exact transfers of {!Algorithm8.run}: the tagged-union sort, both
    annotation passes, per-side oblivious expansion (two padded sorts
    over [a + b + s] slots each) and the zip emitting [s] oTuples.
    @raise Invalid_argument if [a < 1], [b < 1] or [s < 0]. *)

val smc : l:int -> s:int -> ?xi1:int -> ?xi2:int -> ?k0:int -> ?k1:int -> ?w:int -> unit -> float
(** Eqn. 5.8 with the paper's parameters (ξ₁ = ξ₂ = 67 for privacy level
    1 − 10⁻²⁰, κ₀ = 64, κ₁ = 100, ϖ = 1). *)
