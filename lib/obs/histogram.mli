(** Value histograms with exact quantiles up to a fixed reservoir.

    The first {!cap} observations are all retained, so quantiles are
    exact nearest-rank values rather than sketch approximations.  Past
    {!cap} the histogram switches to deterministic reservoir sampling
    (Algorithm R driven by an internal SplitMix64 stream, never the
    global [Random] state): memory and the cost of a {!summary} stay
    bounded however long a server runs, [count]/[sum]/[mean] stay exact,
    and quantiles become reservoir estimates — flagged by [sampled] in
    the summary. *)

type t

type summary = {
  count : int;
  sum : float;
  min : float;
  max : float;
  mean : float;
  p50 : float;
  p95 : float;
  p99 : float;
  sampled : bool;
      (** [true] when the histogram dropped observations past its cap (or
          the summary clipped its exported samples), so
          min/max/quantiles are reservoir estimates. *)
  samples : float array;
      (** The retained reservoir, sorted ascending — possibly thinned to
          [sample_limit] slots on an even quantile grid.  Carried in
          snapshots so histograms from different processes can be merged
          with fleet-wide quantiles (see {!merge_summaries}). *)
}

val cap : int
(** Observations retained before sampling starts: 4096. *)

val create : unit -> t

val observe : t -> float -> unit
(** Non-finite observations raise [Invalid_argument]. *)

val count : t -> int
(** Total observations, including any dropped by the reservoir. *)

val sum : t -> float

val sampled : t -> bool
(** [true] once the histogram holds fewer values than it has observed,
    i.e. past {!cap}. *)

val percentile : t -> float -> float option
(** Nearest-rank percentile: for [q] in (0, 100], the value at sorted
    rank [ceil (q/100 * count)]; [None] on an empty histogram.  Computed
    over the reservoir once sampled.
    @raise Invalid_argument if [q] is outside (0, 100]. *)

val summary : ?sample_limit:int -> t -> summary option
(** [None] on an empty histogram.  [sample_limit] bounds the exported
    [samples] array: a reservoir larger than the limit is thinned onto an
    even quantile grid (and the summary flagged [sampled]), keeping wire
    snapshots bounded however many observations the histogram holds.
    Quantile fields are always computed over the full reservoir. *)

val merge_summaries : summary -> summary -> summary
(** Pointwise merge of two exported summaries: count/sum/min/max/mean
    are exact; p50/p95/p99 are weighted nearest-rank quantiles over the
    carried [samples] (each retained sample weighted count/|samples|).
    A summary with no samples (old snapshot files) contributes a
    five-point [min;p50;p95;p99;max] sketch instead.  The result is
    flagged [sampled] unless both inputs carried every observation. *)
