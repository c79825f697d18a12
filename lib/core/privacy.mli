(** Mechanical checking of Definitions 1 and 3.

    Both definitions quantify over input databases of matched shape
    (equal cardinalities and schemas; for Definition 3 also equal output
    size) and demand identically distributed access traces.  All our safe
    algorithms have {e deterministic} traces given the coprocessor seed
    — Algorithm 6's randomness comes from its seeded MLFSR — so the check
    is exact trace equality across inputs, with the seed held fixed. *)

module Trace = Ppj_scpu.Trace

type verdict =
  | Indistinguishable
  | Distinguishable of { pair : int * int; position : int; detail : string }

val compare_traces : Trace.t list -> verdict
(** All-pairs exact comparison; reports the first divergence found. *)

val compare_extended : Trace.t list list -> verdict
(** Crash-resume variant: each run contributes its {e extended trace} —
    the pre-crash views followed by the completing one, concatenated —
    and those are compared exactly.  Checkpoint placement depends only on
    the transfer clock and crash points come from the (input-independent)
    fault plan, so Definitions 1 and 3 extend to recovered runs: the
    check holds iff the whole adversary view is a function of input
    shape. *)

val compare_sharded : Trace.t list list -> verdict
(** Multi-coprocessor variant: each run contributes its per-shard traces
    in fixed shard order (the adversary observes every shard's host, so
    the view is their union), and the unions are compared exactly.  A
    divergence is mapped back to the shard it falls in — the [detail]
    names the leaking shard — and runs with differing shard counts are
    distinguishable outright.  Definitions 1 and 3 hold for a sharded
    execution iff this verdict is [Indistinguishable] over same-shape
    (for Definition 3: same-[S]) inputs. *)

val compare_exports : ?value_sensitive:(string -> bool) -> Ppj_obs.Snapshot.t list -> verdict
(** The privacy lint on telemetry: scrapes taken after processing
    same-shape inputs must be {e structurally} identical — same metric
    names, same label sets, same kinds — and equal in every
    shape-derived value.  Counter and gauge values are compared exactly
    when [value_sensitive name] holds (default: unless the name contains
    ["seconds"] or ["uptime"], wall-clock values that legitimately differ
    between two runs of the same shape);
    a histogram's observation count is compared {e always} (how many
    joins ran is shape-public; it must not depend on data), its observed
    values only when sensitive.  All-pairs; [position] in a
    [Distinguishable] verdict is the index into the sorted snapshot
    where the exports first disagree.  A verdict of [Indistinguishable]
    over same-shape inputs is what licenses exposing the scrape to an
    untrusted monitoring plane. *)

val check :
  runs:(unit -> Trace.t) list ->
  verdict
(** Run each thunk (each builds a fresh instance of the same shape with
    the same coprocessor seed but different data, runs the algorithm, and
    returns the trace) and compare. *)

val pp_verdict : Format.formatter -> verdict -> unit
