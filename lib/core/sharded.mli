(** Per-shard slice runners for the multi-coprocessor partitioning of
    Algorithms 4/5/6 (§4.4.4, §5.3.5).

    Both deployments of the shard coordinator
    ([Ppj_shard.Coordinator]) reach these runners the same way: its
    in-process backend and a real shard server both run a {!Service}
    config whose algorithm is [Sharded { k; p; inner }].  A slice runner
    executes shard
    [k] of [p] against an {!Instance} that holds the {e full} relations
    — range ("replicate") partitioning: data placement is
    input-independent, so slices inherit the sequential algorithms'
    Definition 1/3 guarantees.

    {b Padding.}  A shard's local match count [s_k] is data-dependent,
    so the oblivious filters run with the public budget
    [min(slice, S)] ({!public_mu}) instead of [s_k]: the per-shard
    trace is then a function of shape (and the Definition-3-public
    total [S]) alone, and the union of per-shard traces can be checked
    with {!Privacy.compare_sharded}.  [?leaky:true] restores the
    [mu = s_k] behaviour as a negative control for the property
    harness. *)

val check : k:int -> p:int -> unit
(** @raise Invalid_argument unless [0 <= k < p]. *)

val range_of : l:int -> p:int -> int -> int * int
(** [range_of ~l ~p k] is shard [k]'s half-open iTuple index range
    [(lo, hi)]; ranges tile [0, l) and differ in size by at most one. *)

val shared_seed : int -> int
(** The MLFSR seed all shards of one Algorithm 6 job must share, derived
    from the job seed (shards walk the same random order and keep
    disjoint position ranges of it). *)

val public_mu : slice:int -> s:int -> int
(** The shape-only filter budget [min(slice, S)] discussed above. *)

val alg4 : ?leaky:bool -> Instance.t -> k:int -> p:int -> s:int -> unit
(** Scan iTuple range [kL/p, (k+1)L/p), write the fixed-size oTuple
    stream, filter with the public budget, persist.  [s] is the public
    total output size (Definition 3 / §4.3 screening). *)

val alg5 : Instance.t -> k:int -> p:int -> s:int -> unit
(** Output the result ranks in [kS/p, (k+1)S/p) by scanning the fixed
    order in [m]-windows; the scan pattern depends only on
    [(l, m, s, k, p)], so no padding is needed. *)

val alg6 :
  ?leaky:bool ->
  Instance.t ->
  k:int ->
  p:int ->
  s:int ->
  shared_seed:int ->
  eps:float ->
  unit
(** Process shard [k]'s position range of the shared-seed MLFSR order in
    [n*]-segments, flush [m]-blocks with decoy padding, filter with the
    public budget. *)

val alg8 : Instance.t -> k:int -> p:int -> attr_a:string -> attr_b:string -> unit
(** {!Algorithm8.run_slice}: the full sort/annotate/expand pipeline with
    only the result ranks [kS/p, (k+1)S/p) emitted — Algorithm 5's
    result-rank partitioning applied to the sort-based join.  S is
    computed inside the pipeline (it is public under Definition 3), so
    no [s] argument is needed; the slice trace is a function of
    [(|A|, |B|, S, k, p)]. *)
