(** Shard server registry: one connect function per shard server
    (loopback, reactor, or Unix socket). *)

module Transport = Ppj_net.Transport

type t

val create : p:int -> connect:(int -> (Transport.t, string) result) -> t
(** [connect k] dials shard [k]; a fresh transport per call (one per
    client session). *)

val p : t -> int

val connect : t -> int -> (Transport.t, string) result
(** Dial shard [k]. *)
