(** Leveled structured logging in key=value line format.

    One line per record: [ts=… level=… logger=… msg=… k=v …], values
    quoted only when they contain bytes that would break tokenising.
    The sink is injectable (default stderr) so servers can route lines
    to a file and tests can capture them. *)

type level = Debug | Info | Warn | Error

val level_of_string : string -> (level, string) result
(** Accepts [debug|info|warn|warning|error], case-insensitive. *)

type t

val create : ?level:level -> ?sink:(string -> unit) -> name:string -> unit -> t
(** Default level [Info], default sink [prerr_endline]. *)

val null : t
(** Discards everything. *)

val set_level : t -> level -> unit

val level : t -> level

val log : t -> level -> ?kv:(string * string) list -> string -> unit

val debug : t -> ?kv:(string * string) list -> string -> unit
val info : t -> ?kv:(string * string) list -> string -> unit
val warn : t -> ?kv:(string * string) list -> string -> unit
val error : t -> ?kv:(string * string) list -> string -> unit
