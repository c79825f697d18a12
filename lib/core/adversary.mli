(** The honest-but-curious adversary: concrete inference procedures that
    extract forbidden information from the access traces of the unsafe
    algorithms — and provably extract nothing from the safe ones.

    "An adversary (e.g., H colluding with P_A who does not receive the
    join result) can easily determine which encrypted tuples of A joined
    with which tuples of B, simply by observing whether T outputted a
    result tuple before the read request for the next B tuple" (§3.4.1). *)

module Trace = Ppj_scpu.Trace
module Host = Ppj_scpu.Host

val naive_match_counts : Trace.t -> a_len:int -> int array
(** §3.4.1 attack: from a naive nested-loop trace, recover the number of
    matches of every tuple of A by counting output writes between
    consecutive reads of the A region. *)

val naive_match_pairs : Trace.t -> (int * int) list
(** The full leak: the exact (a-index, b-index) pairs that joined. *)

val burst_sizes : Trace.t -> int list
(** Lengths of consecutive write runs — the grace-hash leak: a bucket
    flush pads every sibling bucket at once, so burst lengths reveal how
    often (and hence how skewed) buckets fill. *)

val duplicate_histogram : Host.t -> Trace.region -> int -> int list
(** Commutative-encryption attack: multiplicities of identical ciphertexts
    in a host region (sorted descending) — the duplicate distribution of
    the underlying join keys. *)
