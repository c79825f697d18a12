(** Coprocessor-driven oblivious sort of a host region (§4.4.1).

    Each compare-exchange brings the two encrypted elements into the
    coprocessor, decrypts, compares, re-encrypts under fresh nonces and
    writes both back to their original positions (possibly swapped) — four
    tuple transfers per comparator, so a full sort of [n] elements costs
    [4 · comparator_count n ≈ n (log₂ n)²] transfers, the figure used
    throughout the paper's cost analysis. *)

module Coprocessor = Ppj_scpu.Coprocessor
module Trace = Ppj_scpu.Trace

val sentinel : width:int -> string
(** Padding element that sorts after everything (a power-of-two network
    needs the region padded; sentinels are all-0xFF strings, which no
    fixed-width tuple or oTuple encoding produces). *)

val is_sentinel : string -> bool

type network = Bitonic | Odd_even

val sort :
  ?network:network ->
  Coprocessor.t ->
  Trace.region ->
  n:int ->
  compare:(string -> string -> int) ->
  unit
(** Obliviously sort the first [n] slots (a power of two) of a region.
    [compare] sees decrypted plaintexts; sentinels are ordered last
    automatically, so [compare] never sees one.  [network] selects the
    comparator schedule (default [Bitonic], the paper's choice; see
    {!Oddeven} for the cheaper alternative).
    @raise Invalid_argument if [n] is not a power of two. *)

val sort_padded :
  ?network:network ->
  Coprocessor.t ->
  Trace.region ->
  n:int ->
  width:int ->
  compare:(string -> string -> int) ->
  unit
(** Sort a region of arbitrary length [n]: slots [n ..) up to the next
    power of two must exist in the region and are (re)written as
    sentinels first.  After the call the first [n] slots are sorted.
    The p − n sentinel slots, pure network overhead, are counted on the
    coprocessor ({!Coprocessor.pad_slots}, per region), so a report
    separates padding cost from algorithmic cost per execution.  They
    are also added to the process-wide [oblivious.sort.pad_slots_total]
    counter, which only the benchmark reads. *)

val padded_size : int -> int
(** Host-region size needed by {!sort_padded}. *)
