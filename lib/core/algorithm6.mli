(** Algorithm 6 (§5.3.3): trading privacy preserving level for efficiency.

    After a screening pass that learns [S], the iTuples are visited in an
    MLFSR-generated random order (§5.2.3) in segments of the optimal size
    [n*] (largest segment size whose blemish probability stays within ε,
    Eqn. 5.6); each segment flushes exactly [M] oTuples — its [K ≤ M] real
    results padded with decoys — and the ⌈L/n*⌉·M oTuples are obliviously
    filtered down to [S].  With probability at most ε some segment holds
    more than [M] results (a {e blemish}); the run then falls back to an
    Algorithm 5-style salvage, which restores correctness but may leak —
    the report flags it.

    When [M ≥ S] the screening pass already retains everything and the
    algorithm outputs directly at cost [L + S] (§5.3.3 footnote); when
    [ε = 0] and [M < S], [n* = M] and the behaviour degrades gracefully
    toward Algorithm 4's write pattern. *)

type stats = {
  s : int;
  n_star : int;
  segments : int;
  blemished : bool;  (** some segment overflowed memory *)
  salvaged : bool;  (** the Algorithm 5 fallback ran *)
}

val run : Instance.t -> eps:float -> ?delta:int -> ?salvage:bool -> unit -> Report.t * stats
(** [salvage] (default true) controls whether a blemish triggers the
    correctness-restoring fallback; disable it to study the leak. *)

exception Blemished
(** Raised by {!run_slice} when a segment of the slice held more than
    [m] results: the slice refuses rather than deliver short.  Like the
    sequential salvage, the refusal is observable; the same config and
    data refuse again. *)

val shared_seed : int -> int
(** The MLFSR seed all slices of one job share, derived from the job
    seed: they walk one order and keep disjoint position ranges of it. *)

val run_slice : Instance.t -> eps:float -> k:int -> p:int -> s:int -> seed:int -> unit
(** Slice [k] of [p] (§4.4.4): positions [kL/p, (k+1)L/p) of the MLFSR
    order of [seed] in [n*]-segments of [m] oTuples each, filtered with
    the public budget [min(slice, s)] for the public total [s].  Unlike
    {!run} it screens nothing, takes [n* = L] when [m >= s], and
    refuses a blemish.
    @raise Blemished if a segment overflowed [m].
    @raise Invalid_argument unless [0 <= k < p]. *)
