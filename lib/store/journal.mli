(** Append-only CRC32-framed record log with an explicit fsync
    discipline.

    Each record is framed as [u32 length | u32 crc32(payload) | payload]
    (big-endian).  The writer appends one frame per record and fsyncs
    before reporting success, so an acknowledged append survives
    [kill -9].  The reader walks frames from the start and stops at the
    first anomaly — a short header, a length past end-of-file, an
    oversized length, or a CRC mismatch — returning the clean prefix and
    a typed description of the quarantined tail.  A torn write (the
    process died mid-append) therefore recovers to the last acknowledged
    record instead of surfacing garbage.

    [ENOSPC] and short [write(2)]s seal the writer read-only: the failed
    append and every later one report [`Sealed] instead of raising, so
    the caller can shed with a typed refusal while already-acknowledged
    records stay intact (the torn frame, if any, is quarantined by the
    next reader).  [max_bytes] simulates a full device deterministically
    for tests: an append that would cross the cap writes only what fits
    — a genuine torn tail — and seals. *)

val crc32 : string -> int
(** CRC-32 (IEEE 802.3, polynomial 0xEDB88320) of the whole string. *)

type tail =
  | Clean  (** the file ends exactly at a frame boundary *)
  | Truncated of { offset : int; bytes : int }
      (** a frame was cut short at [offset]; [bytes] dropped *)
  | Corrupt of { offset : int; bytes : int }
      (** CRC mismatch or an absurd length at [offset]; [bytes] dropped *)

type contents = {
  records : (int * string) list;  (** (frame byte offset, payload) *)
  clean_bytes : int;  (** byte length of the clean prefix *)
  tail : tail;
}

val read_file : string -> contents
(** The clean-prefix records of the file at [path]; a missing file reads
    as empty with a [Clean] tail. *)

val frame : string -> string
(** The framed bytes of one record (for size accounting and tests). *)

val write_atomic : string -> string list -> (unit, string) result
(** [write_atomic path records] writes all records framed to
    [path ^ ".tmp"], fsyncs, renames over [path] and fsyncs the parent
    directory: readers see either the old file or the complete new one,
    never a prefix. *)

type writer

val open_append : ?max_bytes:int -> string -> (writer, string) result
(** Open (creating if needed) [path] for appending.  The caller is
    expected to have repaired any quarantined tail first
    ({!truncate_file}). *)

val append : writer -> string -> (unit, [ `Sealed | `Io of string ]) result
(** Frame, write and fsync one record.  After the first [ENOSPC] or
    short write the writer is sealed and every call returns [`Sealed]. *)

val is_sealed : writer -> bool

val size : writer -> int
(** Bytes in the file as tracked by this writer. *)

val fsyncs : writer -> int

val close : writer -> unit

val truncate_file : string -> int -> unit
(** Truncate [path] to [bytes] (tail repair before reopening). *)

val fsync_dir : string -> unit
(** fsync a directory so a create/rename inside it is durable. *)
