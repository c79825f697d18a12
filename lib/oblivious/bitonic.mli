(** Batcher's bitonic sorting network (§4.4.1, [7]).

    A sorting network's compare-exchange schedule depends only on the input
    length, never on the data — exactly the property that makes the sort
    oblivious when each compare-exchange is executed through the
    coprocessor.  The paper's cost accounting uses the approximations
    ½(log₂ n)² stages and ¼ n (log₂ n)² comparisons; {!comparator_count}
    is the exact count, and the cost module exposes both. *)

val next_pow2 : int -> int

val schedule : int -> (int * int) array
(** [schedule n] (with [n] a power of two) is the ordered list of
    compare-exchanges [(p, q)] meaning "ensure a.(p) <= a.(q)"; executing
    them in order sorts ascending.  Schedules are memoized per size (they
    are pure functions of [n]); callers must not mutate the returned
    array.
    @raise Invalid_argument if [n] is not a positive power of two. *)

val schedule_builds : unit -> int
(** How many schedules have been built (memoization cache misses) since
    process start — a repeat sort of an already-seen size must not bump
    this. *)

val comparator_count : int -> int
(** Exact comparator count: n/4 · log₂ n (log₂ n + 1). *)

val sort_in_place : ('a -> 'a -> int) -> 'a array -> unit
(** Reference in-memory execution of the network (pads conceptually are the
    caller's responsibility: the array length must be a power of two). *)
