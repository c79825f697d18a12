(** The Algorithm 4 slice under the name the benchmark's shard workload
    calls it by. *)

val alg4 : Instance.t -> k:int -> p:int -> s:int -> unit
(** [Algorithm4.run_slice ~budget:(Public { s })]. *)
