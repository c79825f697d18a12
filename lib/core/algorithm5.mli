(** Algorithm 5 (§5.3.2): exact privacy preserving join for coprocessors
    with large memory.

    [T] scans the cartesian product ⌈S/M⌉ times, retaining up to [M]
    results per scan and flushing only at scan boundaries (flushing the
    instant memory fills would reveal where the M-th match sits, which is
    why the security proof pins the writes to scan ends).  Each scan
    keeps the next [M] result ranks, so none is output twice.  Write
    cost is the optimal [S]; read cost ⌈S/M⌉·L (Eqn. 5.3). *)

val run : Instance.t -> Report.t

val run_slice : Instance.t -> k:int -> p:int -> s:int -> unit
(** Slice [k] of [p] (§5.3.5): result ranks [kS/p, (k+1)S/p) of the
    public total [s], in a scan pattern of [(L, M, S, k, p)] alone.  The
    one seam with {!run}: at S = 0 {!run} still scans once, to learn S,
    and a slice scans none.
    @raise Invalid_argument unless [0 <= k < p]. *)

val execute : Instance.t -> int * int
(** The sequential scan loop: persists the results and returns
    [(S, scans)].  Algorithm 6 reuses it as its blemish-salvage
    fallback. *)
