(** Execution report of one privacy preserving join run: the measured
    quantities the paper's cost analysis predicts, plus the decoded
    results for correctness checking. *)

module Tuple = Ppj_relation.Tuple

type t = {
  transfers : int;  (** tuple transfers between T and H — the §4.3 cost unit *)
  reads : int;
  writes : int;
  disk_tuples : int;  (** tuples the server wrote to disk *)
  cycles : int;  (** fixed-time cycle counter *)
  pad_slots : int;
      (** sentinel slots this execution's padded sorts wrote, over every
          region ({!Ppj_scpu.Coprocessor.pad_slots}).  A crash-resumed
          execution counts its padding once, as a clean run of the same
          config does: the replay reruns every sort on the new
          coprocessor, which counts from zero. *)
  otuples : string list;
      (** the persisted oTuple stream as [T] reads it back from disk and
          decrypts it, decoys included: what the service seals to the
          recipient *)
  results : Tuple.t list;  (** recipient-decoded join results, decoys dropped *)
  stats : (string * float) list;  (** algorithm-specific figures (γ, n*, …) *)
  metrics : Ppj_obs.Snapshot.t;
      (** full labelled snapshot: per-region transfer counters, memory
          ledger, disk figures and the [stats] as gauges — the
          machine-readable face of this report *)
}

val collect : Instance.t -> ?stats:(string * float) list -> unit -> t
(** Snapshot the instance's trace/host counters and decode the disk
    contents as the recipient would.  [metrics] is populated from
    {!Ppj_scpu.Coprocessor.observe} (per-region pad slots included) and
    {!Ppj_scpu.Host.observe}. *)

val stat : t -> string -> float
(** @raise Not_found if the statistic is absent. *)

val pp : Format.formatter -> t -> unit
