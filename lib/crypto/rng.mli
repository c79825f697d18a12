(** Deterministic, splittable randomness for simulations.

    Every source of randomness in the repository (workload generation,
    nonces, shuffles, Algorithm 6's segment order) flows through an
    explicit [Rng.t] so that experiments and privacy checks are exactly
    reproducible from a seed. *)

type t

val create : int -> t

val split : t -> string -> t
(** [split t label] derives an independent stream named [label]; the same
    label always yields the same stream. *)

val int : t -> int -> int
(** [int t bound] is uniform in [0, bound). *)

val float : t -> float -> float

val bool : t -> bool

val bytes : t -> int -> string
(** [bytes t n] is an [n]-byte uniformly random string (e.g. a key). *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)
