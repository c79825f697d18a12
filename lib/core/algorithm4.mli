(** Algorithm 4 (§5.3.1): exact privacy preserving join for coprocessors
    with small memory.

    One pass over the cartesian product [D] writes an oTuple — real result
    or decoy — for {e every} iTuple, so the write pattern carries no
    information; the [L] oTuples are then obliviously filtered (§5.2.2)
    down to the [S] reals.  Needs only two tuples of trusted memory and is
    100% privacy preserving, at cost
    [2L + (L-S)/D . (S+D) (log2(S+D))^2] with D the optimal swap size
    of Eqn. 5.1 (Eqn. 5.2); {!Cost.alg4_exact} is the exact count. *)

(** How many reals the filter assumes a slice's oTuples hold. *)
type budget =
  | Own_count
      (** The slice's own match count: S for the sequential algorithm.
          A slice of a larger product must not use it, for its count
          shows where the matches fall (the negative control). *)
  | Public of { s : int }
      (** [min(slice, s)] for the public total [s] (Definition 3): the
          slice's trace is a function of shape alone, and the surplus
          slots surface as decoys the recipient drops. *)

val run_slice :
  Instance.t -> ?delta:int -> ?network:Ppj_oblivious.Sort.network ->
  budget:budget -> k:int -> p:int -> unit -> int
(** Slice [k] of [p] (§4.4.4): write the oTuples of iTuples
    [kL/p, (k+1)L/p), filter them with [budget] and persist the
    survivors.  Returns the slice's own match count.
    @raise Invalid_argument unless [0 <= k < p]. *)

val run :
  Instance.t -> ?delta:int -> ?network:Ppj_oblivious.Sort.network -> unit -> Report.t
(** [run_slice ~budget:Own_count ~k:0 ~p:1] plus the report.  [delta]
    overrides the swap-area size (default: the Eqn. 5.1 optimum);
    [network] selects the oblivious-sort comparator schedule (default the
    paper's bitonic; [Odd_even] is the ablation alternative). *)

val filter :
  Instance.t -> ?delta:int -> ?network:Ppj_oblivious.Sort.network ->
  len:int -> mu:int -> unit -> unit
(** Filter the [len] oTuples of the [Output] region down to [mu]
    (§5.2.2) and persist those; nothing when [mu = 0].  Algorithm 6
    filters its segments the same way. *)
