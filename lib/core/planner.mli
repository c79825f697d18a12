(** Cost-based algorithm selection.

    The paper gives per-regime winners (Figure 4.1, Table 5.1) but leaves
    choosing to the operator; a downstream user wants the system to pick.
    The planner evaluates the closed forms of {!Cost} at the instance's
    actual parameters — [S] from the screening pass the paper itself
    prescribes (§4.3 computes exact N the same way) — and returns the
    cheapest algorithm within the requested privacy level. *)

type plan =
  | Use_alg4
  | Use_alg5
  | Use_alg6 of { eps : float }
  | Use_alg8

val choose :
  ?ab:int * int -> l:int -> s:int -> m:int -> max_eps:float -> unit -> plan * float
(** Cheapest of Algorithms 4, 5, and 6 at privacy level at least
    [1 - max_eps]; [max_eps = 0.] restricts to the exact algorithms.
    Passing [ab = (|A|, |B|)] also admits Algorithm 8 — only callers
    that know the binary equi-join attributes (and hence can execute
    it) should do so.  Returns the plan and its predicted transfer
    count. *)

val choose_ch4 :
  a:int -> b:int -> n:int -> m:int -> equijoin:bool -> Cost.ch4_algorithm * float
(** Chapter 4 counterpart (N public): cheapest of Algorithms 1, 2 and —
    when the predicate is an equality — 3. *)
