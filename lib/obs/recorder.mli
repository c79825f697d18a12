(** The flight recorder: hierarchical spans and point events in a
    bounded ring buffer.

    One recorder per process side (client, server, CLI); spans nest via
    an open-span stack, cross-process parentage comes from {!adopt}ing a
    {!Trace_ctx} received over the wire.  Completed spans and events land
    in a ring of [capacity] items — overflow drops the oldest and counts
    them in {!dropped}.

    {b Privacy whitelist.}  Attribute values are limited to the {!value}
    variant: integers, floats, booleans and {!sym} symbols (1–64
    printable ASCII bytes).  There is deliberately no constructor for
    arbitrary byte strings, so span payloads can only carry what the
    host adversary of the paper already observes — region names, counts,
    sizes, timings — never tuple bytes or key material.  The
    structure-equality property test (everything except timestamps equal
    across same-shape inputs) holds the recorder to the same standard as
    Definitions 1/3 hold the transfer trace. *)

type value = Int of int | Float of float | Bool of bool | Sym of string

val int : int -> value
val float : float -> value
val bool : bool -> value

val sym : string -> value
(** @raise Invalid_argument unless 1–64 printable ASCII bytes. *)

type attrs = (string * value) list

type t

val create : ?capacity:int -> ?trace_id:string -> name:string -> unit -> t
(** [name] labels this side of the trace ("client", "server", …) and
    prefixes its span ids; it must satisfy {!sym}.  [capacity] bounds
    the ring (default 4096).  Without [trace_id] a fresh id is derived
    from wall clock and pid. *)

val name : t -> string

val trace_id : t -> string

val dropped : t -> int
(** Items evicted by ring overflow. *)

val ctx : t -> Trace_ctx.t
(** The context to stamp into outgoing messages: this recorder's
    trace id plus the innermost open span (or the adopted remote parent,
    or {!Trace_ctx.root_span}). *)

val adopt : t -> Trace_ctx.t -> unit
(** Join the peer's trace: take over its trace id and parent all
    subsequent root spans under the context's span.  Spans and events
    keep the trace id that was current when they started, so a later
    adoption does not relabel them. *)

val start_span : t -> ?parent:string -> ?attrs:attrs -> string -> string
(** Open a span and return its id.  Parent defaults to the innermost
    open span, else the adopted remote parent.  [parent] overrides —
    used to hang a resume span under the original join span even though
    that span already ended. *)

val end_span : t -> unit
(** Close the innermost open span, recording it.
    @raise Invalid_argument with no open span. *)

val with_span : t -> ?parent:string -> ?attrs:attrs -> string -> (unit -> 'a) -> 'a
(** [start_span]/[end_span] around a thunk; closes on exceptions too. *)

val current_span_id : t -> string option

val event : t -> ?attrs:attrs -> string -> unit
(** Record a point event under the innermost open span. *)

val to_perfetto : t -> Json.t
(** Chrome/Perfetto trace-event JSON: [{"traceEvents": [...]}] with a
    process-name metadata record, ["ph":"X"] complete events for spans
    (ids in [args]) and ["ph":"i"] instants for events.  Each names, in
    [args.trace_id], the trace id current when it started. *)

val merge : Json.t list -> (Json.t, string) result
(** Concatenate the [traceEvents] of several exported traces (e.g. the
    client's and the server's) into one loadable trace. *)

val events_of : Json.t -> (Json.t list, string) result
(** The [traceEvents] array of an exported trace, for validation. *)

val timeline : t -> string
(** Deterministic plain-text rendering: items in record order, indented
    by span depth, with names and attributes but no timestamps or ids —
    byte-comparable across same-shape runs. *)
