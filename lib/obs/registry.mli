(** A labelled collection of live metrics.

    Metric identity is (name, sorted labels); asking twice for the same
    identity returns the same underlying instrument, and asking for an
    existing identity with a different kind raises.  {!snapshot} is
    deterministic — see {!Snapshot}.

    Instrument lookup, {!set_gauge} and {!snapshot} are thread-safe (a
    per-registry mutex guards the table, and {!Counter} is atomic), so
    jobs on several domains may share one registry.  {!Histogram}
    observations are NOT internally synchronized; callers observing
    into one histogram from several domains must serialize themselves
    (the shard {!Metrics} sink does). *)

type t

val create : unit -> t

val default : t
(** A process-wide registry.  Its one writer is the oblivious sort's
    [oblivious.sort.pad_slots_total] counter, which the benchmark reads
    by difference; every other metric goes to a registry its owner
    created. *)

val counter : ?labels:(string * string) list -> t -> string -> Counter.t

val histogram : ?labels:(string * string) list -> t -> string -> Histogram.t

val set_gauge : ?labels:(string * string) list -> t -> string -> float -> unit
(** Last write wins. *)

val observe : ?labels:(string * string) list -> t -> string -> float -> unit
(** Record one value into the histogram [name] — shorthand for
    {!histogram} + {!Histogram.observe} at call sites that never need
    the instrument itself (the load generator's latency samples). *)

val span : ?labels:(string * string) list -> t -> string -> (unit -> 'a) -> 'a
(** Run the thunk, recording its wall-clock duration (seconds, via
    {!Clock}) into the histogram [name].  Durations of raising thunks are
    recorded too, then the exception is re-raised. *)

val snapshot : t -> Snapshot.t
