(* The flight recorder: hierarchical spans and point events in a bounded
   ring buffer, exportable as Chrome/Perfetto trace-event JSON and as a
   deterministic plain-text timeline.

   Privacy: attribute values are restricted by construction to the
   whitelist below — numbers, booleans and short printable symbols.
   There is no constructor for arbitrary bytes, so tuple plaintexts,
   ciphertexts and keys cannot be recorded even by accident; the host
   adversary already sees everything a span can carry (region names,
   counts, sizes, timings). *)

type value = Int of int | Float of float | Bool of bool | Sym of string

let int i = Int i
let float f = Float f
let bool b = Bool b

let sym s =
  let n = String.length s in
  if n = 0 || n > 64 then invalid_arg "Recorder.sym: length outside 1..64";
  if not (String.for_all (fun c -> Char.code c >= 0x20 && Char.code c < 0x7f) s) then
    invalid_arg "Recorder.sym: non-printable byte";
  Sym s

type attrs = (string * value) list

type item =
  | I_span of {
      seq : int;
      trace_id : string;
      id : string;
      parent : string option;
      depth : int;
      name : string;
      attrs : attrs;
      start_ts : float;
      end_ts : float;
    }
  | I_event of {
      seq : int;
      trace_id : string;
      parent : string option;
      depth : int;
      name : string;
      attrs : attrs;
      ts : float;
    }

type open_span = {
  o_trace : string;
  o_id : string;
  o_seq : int;
  o_name : string;
  o_attrs : attrs;
  o_parent : string option;
  o_depth : int;
  o_start : float;
}

type t = {
  name : string;
  pid : int;
  capacity : int;
  mutable trace_id : string;
  mutable remote_parent : string option;
  mutable next_span : int;
  mutable next_seq : int;
  ring : item option array;
  mutable written : int;
  mutable stack : open_span list;
}

let gen_trace_id () =
  let us = Int64.of_float (Unix.gettimeofday () *. 1e6) in
  Printf.sprintf "%Lx-%04x" us (Unix.getpid () land 0xffff)

let create ?(capacity = 4096) ?trace_id ~name () =
  if capacity < 1 then invalid_arg "Recorder.create: capacity must be >= 1";
  (match sym name with Sym _ -> () | _ -> assert false);
  let trace_id = match trace_id with Some id -> id | None -> gen_trace_id () in
  { name;
    (* Stable per-name logical pid so merged client/server traces render
       as two process tracks without coordination. *)
    pid = (Hashtbl.hash name land 0x3fff) + 1;
    capacity;
    trace_id;
    remote_parent = None;
    next_span = 0;
    next_seq = 0;
    ring = Array.make capacity None;
    written = 0;
    stack = [];
  }

let name t = t.name
let trace_id t = t.trace_id
let dropped t = max 0 (t.written - t.capacity)

let record t it =
  t.ring.(t.written mod t.capacity) <- Some it;
  t.written <- t.written + 1

let next_seq t =
  let s = t.next_seq in
  t.next_seq <- s + 1;
  s

let current_span_id t = match t.stack with s :: _ -> Some s.o_id | [] -> None

let ctx t =
  let span_id =
    match current_span_id t with
    | Some id -> id
    | None -> (match t.remote_parent with Some id -> id | None -> Trace_ctx.root_span)
  in
  Trace_ctx.make ~trace_id:t.trace_id ~span_id

let adopt t rc =
  t.trace_id <- Trace_ctx.trace_id rc;
  t.remote_parent <- Trace_ctx.parent rc

let start_span t ?parent ?(attrs = []) sname =
  (match sym sname with Sym _ -> () | _ -> assert false);
  let parent, depth =
    match parent with
    | Some _ as p -> (p, match t.stack with s :: _ -> s.o_depth + 1 | [] -> 0)
    | None -> (
        match t.stack with
        | s :: _ -> (Some s.o_id, s.o_depth + 1)
        | [] -> (t.remote_parent, 0))
  in
  let id = Printf.sprintf "%s-%d" t.name t.next_span in
  t.next_span <- t.next_span + 1;
  let sp =
    { o_trace = t.trace_id;
      o_id = id;
      o_seq = next_seq t;
      o_name = sname;
      o_attrs = attrs;
      o_parent = parent;
      o_depth = depth;
      o_start = Clock.now ();
    }
  in
  t.stack <- sp :: t.stack;
  id

let end_span t =
  match t.stack with
  | [] -> invalid_arg "Recorder.end_span: no open span"
  | sp :: rest ->
      t.stack <- rest;
      record t
        (I_span
           { seq = sp.o_seq;
             trace_id = sp.o_trace;
             id = sp.o_id;
             parent = sp.o_parent;
             depth = sp.o_depth;
             name = sp.o_name;
             attrs = sp.o_attrs;
             start_ts = sp.o_start;
             end_ts = Clock.now ();
           })

let with_span t ?parent ?attrs sname f =
  let (_ : string) = start_span t ?parent ?attrs sname in
  Fun.protect ~finally:(fun () -> end_span t) f

let event t ?(attrs = []) ename =
  (match sym ename with Sym _ -> () | _ -> assert false);
  let parent, depth =
    match t.stack with
    | s :: _ -> (Some s.o_id, s.o_depth + 1)
    | [] -> (t.remote_parent, 0)
  in
  record t
    (I_event
       { seq = next_seq t;
         trace_id = t.trace_id;
         parent;
         depth;
         name = ename;
         attrs;
         ts = Clock.now ();
       })

let items t =
  let collected = ref [] in
  Array.iter (function Some it -> collected := it :: !collected | None -> ()) t.ring;
  List.sort
    (fun a b ->
      let seq = function I_span s -> s.seq | I_event e -> e.seq in
      compare (seq a) (seq b))
    !collected

(* --- exports --------------------------------------------------------- *)

let value_to_json = function
  | Int i -> Json.Int i
  | Float f -> Json.Float f
  | Bool b -> Json.Bool b
  | Sym s -> Json.Str s

let args_json ~trace_id ~span_id ~parent attrs =
  ("trace_id", Json.Str trace_id)
  :: (match span_id with Some id -> [ ("span_id", Json.Str id) ] | None -> [])
  @ (match parent with Some p -> [ ("parent_id", Json.Str p) ] | None -> [])
  @ List.map (fun (k, v) -> (k, value_to_json v)) attrs

let usec ts = Json.Float (ts *. 1e6)

let item_to_json t = function
  | I_span s ->
      Json.Obj
        [ ("name", Json.Str s.name);
          ("cat", Json.Str "ppj");
          ("ph", Json.Str "X");
          ("ts", usec s.start_ts);
          ("dur", usec (s.end_ts -. s.start_ts));
          ("pid", Json.Int t.pid);
          ("tid", Json.Int 1);
          ( "args",
            Json.Obj
              (args_json ~trace_id:s.trace_id ~span_id:(Some s.id) ~parent:s.parent s.attrs) )
        ]
  | I_event e ->
      Json.Obj
        [ ("name", Json.Str e.name);
          ("cat", Json.Str "ppj");
          ("ph", Json.Str "i");
          ("ts", usec e.ts);
          ("pid", Json.Int t.pid);
          ("tid", Json.Int 1);
          ("s", Json.Str "t");
          ( "args",
            Json.Obj (args_json ~trace_id:e.trace_id ~span_id:None ~parent:e.parent e.attrs) )
        ]

let to_perfetto t =
  let meta =
    Json.Obj
      [ ("name", Json.Str "process_name");
        ("ph", Json.Str "M");
        ("pid", Json.Int t.pid);
        ("tid", Json.Int 1);
        ("args", Json.Obj [ ("name", Json.Str t.name) ])
      ]
  in
  Json.Obj [ ("traceEvents", Json.List (meta :: List.map (item_to_json t) (items t))) ]

let events_of trace =
  match Json.member "traceEvents" trace with
  | Some (Json.List evs) -> Ok evs
  | _ -> Error "trace: missing traceEvents array"

let merge traces =
  let rec go acc = function
    | [] -> Ok (Json.Obj [ ("traceEvents", Json.List (List.concat (List.rev acc))) ])
    | tr :: rest -> (
        match events_of tr with Ok evs -> go (evs :: acc) rest | Error _ as e -> e)
  in
  go [] traces

(* The deterministic view for tests: everything except timestamps and
   ids, with hierarchy shown by indentation.  Two runs over same-shape
   inputs must render byte-identical timelines (the recorder-level
   mirror of the Definition 1/3 trace checks). *)
let value_to_string = function
  | Int i -> string_of_int i
  | Float f -> Printf.sprintf "%g" f
  | Bool b -> string_of_bool b
  | Sym s -> s

let timeline t =
  let b = Buffer.create 256 in
  if dropped t > 0 then Buffer.add_string b (Printf.sprintf "# dropped=%d\n" (dropped t));
  List.iter
    (fun it ->
      let depth, mark, iname, attrs =
        match it with
        | I_span s -> (s.depth, "*", s.name, s.attrs)
        | I_event e -> (e.depth, "-", e.name, e.attrs)
      in
      Buffer.add_string b (String.make (2 * depth) ' ');
      Buffer.add_string b mark;
      Buffer.add_char b ' ';
      Buffer.add_string b iname;
      List.iter
        (fun (k, v) ->
          Buffer.add_char b ' ';
          Buffer.add_string b k;
          Buffer.add_char b '=';
          Buffer.add_string b (value_to_string v))
        attrs;
      Buffer.add_char b '\n')
    (items t);
  Buffer.contents b
