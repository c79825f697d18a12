(** Hypergeometric tail bounds and the optimal segment size of
    Algorithm 6 (Eqns. 5.4–5.6).

    The number of join results in a random [n]-tuple segment drawn without
    replacement from [L] iTuples of which [S] join is hypergeometric;
    a segment overflowing the coprocessor memory [M] is a {e blemish}.
    The union bound over ⌈L/n⌉ segments gives the blemish probability
    [P_M(n)], and the optimal segment size [n*] is the largest [n] with
    [P_M(n) <= eps].  (The paper's Eqn. 5.6 says "minimum n", which would
    degenerately pick n = 1; the surrounding trade-off discussion — larger
    segments are cheaper but riskier — makes clear the intended optimum is
    the maximum, and [eps = 0] then yields n* = M exactly as §5.3.3
    states.) *)

val pmf : l:int -> s:int -> n:int -> k:int -> float
(** Eqn. 5.4: P[x(n) = k]. *)

val cdf_le : l:int -> s:int -> n:int -> m:int -> float
(** Eqn. 5.5: P[x(n) <= M]. *)

val tail_gt : l:int -> s:int -> n:int -> m:int -> float
(** P[x(n) > M] = 1 − {!cdf_le}, computed by direct tail summation so that
    values far below machine epsilon (the paper sweeps ε down to 10⁻⁶⁰)
    remain accurate. *)

val blemish_bound : l:int -> s:int -> n:int -> m:int -> float
(** P_M(n) = (L/n) · P[x(n) > M], the union bound of §5.3.3. *)

val n_star : l:int -> s:int -> m:int -> eps:float -> int
(** Largest segment size with blemish probability at most [eps];
    [n_star ~eps:0.] = M when M < S, and L when M >= S. *)
