(** The adversary's view: the ordered list of host locations read and
    written by the secure coprocessor.

    Definitions 1 and 3 of the paper declare a join algorithm privacy
    preserving iff this object is identically distributed across inputs of
    the same shape.  Making the trace a first-class value lets the test
    suite check the definitions mechanically and lets the cost module
    count transfers exactly.

    Recording runs on every transfer, so a trace stores each entry as
    one int (op bit, region id, index), the regions interned in
    first-appearance order; {!record} allocates nothing once the array
    has grown.  {!entry} values are built only by the functions that
    return them ({!to_list}, {!first_divergence}, {!pp}). *)

type op = Read | Write

type region =
  | Table of string  (** a party's relation stored on the host *)
  | Cartesian  (** the virtual cartesian product D of Chapter 5 *)
  | Scratch  (** Algorithm 1/3 scratch array *)
  | Joined  (** Algorithm 2 per-pass output block *)
  | Buffer  (** §5.2.2 oblivious-filter buffer *)
  | Output  (** oTuple stream of Algorithms 4–6 *)
  | Oram_store  (** permuted main memory of the square-root ORAM *)
  | Oram_shelter  (** the ORAM's per-epoch shelter *)
  | Disk  (** host disk (final results) *)
  | Checkpoint  (** sealed coprocessor recovery state (one slot) *)

val same_region : region -> region -> bool
(** Region equality without polymorphic compare: [Table]s by name, the
    constant regions by constructor. *)

type entry = { op : op; region : region; index : int }

type t

val create : unit -> t

val record : t -> op -> region -> int -> unit

val length : t -> int

val to_list : t -> entry list

val reads : t -> int

val writes : t -> int

val transfers_to_region : t -> region -> int
(** Number of entries touching [region]. *)

val region_name : region -> string
(** Stable machine-readable region label for metrics and JSON export
    (e.g. ["table:A"], ["cartesian"], ["oram_shelter"]). *)

val region_of_name : string -> region
(** Inverse of {!region_name} (used when parsing sealed checkpoints).
    @raise Invalid_argument on an unknown label. *)

val by_region : t -> (region * (int * int)) list
(** Per-region (reads, writes), in first-appearance order. *)

val concat : t list -> t
(** A fresh trace holding the given traces' entries in order.  The
    privacy checker compares these {e extended traces} for crash-resume
    runs: what the adversary saw before the crash followed by what it
    sees after, as one view. *)

val equal : t -> t -> bool
(** Exact equality of ordered location lists — the check for
    deterministic-schedule algorithms.  Regions compare by value, not
    by their ids in either trace. *)

val first_divergence : t -> t -> (int * entry option * entry option) option
(** Diagnostic: position and entries where two traces first differ. *)

val pp_entry : Format.formatter -> entry -> unit

val pp : Format.formatter -> t -> unit
(** Prints a bounded prefix (for debugging). *)
