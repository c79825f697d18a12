(** Deterministic fault plans.

    A plan is a schedule of adversarial events against a run of the join
    service, addressed by logical clocks that every layer already
    maintains: the coprocessor's transfer counter, per-direction frame
    matchers on the wire, and the client's [recv] call counter.  Because
    every clock is deterministic, replaying the same plan against the
    same seeded workload reproduces the same failure, byte for byte —
    chaos findings are bug reports, not anecdotes.

    Plans are pure data; the mutable firing state (one-shot consumption,
    skip/count windows) lives in {!Injector}. *)

type dir = To_server | To_client
(** Wire direction, as seen from the client.  [lib/net] maps its
    [Wiretap.dir] onto this so the fault layer stays below the wire
    protocol. *)

type scpu_action =
  | Corrupt  (** flip a bit of the host slot touched by transfer [t] *)
  | Replay  (** serve a stale previous ciphertext of that slot instead *)
  | Crash  (** kill the coprocessor before transfer [t] executes *)
  | Kill9
      (** SIGKILL the {e whole process} before transfer [t]: no exception,
          no cleanup — the process-level crash a durable server must
          survive via its state directory.  Never drawn by {!random}
          (it would kill the harness); only explicit plans carry it. *)

type net_action =
  | Drop
  | Duplicate
  | Delay  (** deliver the frame after the next one in its direction *)
  | Corrupt_frame  (** flip a payload bit; framing survives, auth fails *)

type event =
  | Scpu of { action : scpu_action; transfer : int }
      (** Fires when the coprocessor is about to execute transfer
          [transfer] (0-based ordinal over its [get]/[put] ops). *)
  | Net of {
      action : net_action;
      dir : dir option;  (** [None] matches both directions *)
      tag : string option;  (** wire message-tag name; [None] matches all *)
      skip : int;  (** matching frames to let pass before firing *)
      count : int;  (** how many matching frames to affect *)
    }
  | Recv_timeout of { call : int }
      (** The client's [call]-th transport [recv] (0-based) reports that
          nothing arrived, whatever the wire carried. *)

type t = {
  events : event list;
  checkpoint_every : int option;
      (** When set, runs driven by this plan checkpoint the coprocessor
          every [c] transfers so injected crashes are survivable. *)
}

val empty : t

val make : ?checkpoint_every:int -> event list -> t

(** {2 Constructors} *)

val drop : ?dir:dir -> ?tag:string -> ?skip:int -> ?count:int -> unit -> event
val duplicate : ?dir:dir -> ?tag:string -> ?skip:int -> ?count:int -> unit -> event
val delay : ?dir:dir -> ?tag:string -> ?skip:int -> ?count:int -> unit -> event

val recv_timeout : int -> event

(** {2 Text form}

    [;]-separated events, each [action\@key=value,...]:

    - [crash\@t=120], [corrupt\@t=5], [replay\@t=9] — coprocessor events;
    - [kill9\@t=120] — SIGKILL the whole server process at that transfer;
    - [drop], [dup], [delay], [corrupt-frame] with optional
      [dir=to_server|to_client], [tag=<wire tag name>], [skip=N],
      [count=N] (defaults: both directions, any tag, skip 0, count 1);
    - [timeout\@recv=K] — inject a client recv timeout on call [K];
    - [checkpoint\@every=C] — sets [checkpoint_every].

    [to_string] emits the canonical form (defaults omitted) and
    [of_string] accepts it back: the round trip is the identity. *)

val to_string : t -> string

val of_string : string -> (t, string) result

val random : seed:int -> t
(** A small random plan — one to three events drawn across every fault
    family, usually with checkpointing enabled — deterministic in
    [seed].  The chaos soak feeds these. *)

val pp : Format.formatter -> t -> unit
