module Rng = Ppj_crypto.Rng

type dir = To_server | To_client

type scpu_action = Corrupt | Replay | Crash | Kill9

type net_action = Drop | Duplicate | Delay | Corrupt_frame

type event =
  | Scpu of { action : scpu_action; transfer : int }
  | Net of {
      action : net_action;
      dir : dir option;
      tag : string option;
      skip : int;
      count : int;
    }
  | Recv_timeout of { call : int }

type t = { events : event list; checkpoint_every : int option }

let empty = { events = []; checkpoint_every = None }

let make ?checkpoint_every events = { events; checkpoint_every }

let scpu action transfer =
  if transfer < 0 then invalid_arg "Plan: negative transfer index";
  Scpu { action; transfer }

let crash_at t = scpu Crash t
let corrupt_at t = scpu Corrupt t
let replay_at t = scpu Replay t

let net action ?dir ?tag ?(skip = 0) ?(count = 1) () =
  if skip < 0 || count < 1 then invalid_arg "Plan: bad skip/count";
  Net { action; dir; tag; skip; count }

let drop = net Drop
let duplicate = net Duplicate
let delay = net Delay
let corrupt_frame = net Corrupt_frame

let recv_timeout call =
  if call < 0 then invalid_arg "Plan: negative recv call index";
  Recv_timeout { call }

(* --- text form ------------------------------------------------------- *)

let dir_to_string = function To_server -> "to_server" | To_client -> "to_client"

let scpu_action_to_string = function
  | Corrupt -> "corrupt"
  | Replay -> "replay"
  | Crash -> "crash"
  | Kill9 -> "kill9"

let net_action_to_string = function
  | Drop -> "drop"
  | Duplicate -> "dup"
  | Delay -> "delay"
  | Corrupt_frame -> "corrupt-frame"

let event_to_string = function
  | Scpu { action; transfer } ->
      Printf.sprintf "%s@t=%d" (scpu_action_to_string action) transfer
  | Net { action; dir; tag; skip; count } ->
      let args =
        List.concat
          [ (match dir with Some d -> [ "dir=" ^ dir_to_string d ] | None -> []);
            (match tag with Some s -> [ "tag=" ^ s ] | None -> []);
            (if skip > 0 then [ Printf.sprintf "skip=%d" skip ] else []);
            (if count <> 1 then [ Printf.sprintf "count=%d" count ] else []);
          ]
      in
      let base = net_action_to_string action in
      if args = [] then base else base ^ "@" ^ String.concat "," args
  | Recv_timeout { call } -> Printf.sprintf "timeout@recv=%d" call

let to_string t =
  let parts = List.map event_to_string t.events in
  let parts =
    match t.checkpoint_every with
    | Some c -> parts @ [ Printf.sprintf "checkpoint@every=%d" c ]
    | None -> parts
  in
  String.concat ";" parts

let ( let* ) = Result.bind

let parse_int key s =
  match int_of_string_opt s with
  | Some v when v >= 0 -> Ok v
  | _ -> Error (Printf.sprintf "plan: %s wants a non-negative integer, got %S" key s)

let parse_args s =
  (* "k1=v1,k2=v2" -> assoc list, rejecting malformed pairs *)
  if String.trim s = "" then Ok []
  else
    List.fold_left
      (fun acc pair ->
        let* acc = acc in
        match String.index_opt pair '=' with
        | None -> Error (Printf.sprintf "plan: expected key=value, got %S" pair)
        | Some i ->
            let k = String.trim (String.sub pair 0 i) in
            let v = String.trim (String.sub pair (i + 1) (String.length pair - i - 1)) in
            if List.mem_assoc k acc then Error (Printf.sprintf "plan: duplicate key %S" k)
            else Ok ((k, v) :: acc))
      (Ok [])
      (String.split_on_char ',' s)

let known args allowed =
  match List.find_opt (fun (k, _) -> not (List.mem k allowed)) args with
  | Some (k, _) -> Error (Printf.sprintf "plan: unknown key %S" k)
  | None -> Ok ()

let parse_scpu action args =
  let* () = known args [ "t" ] in
  match List.assoc_opt "t" args with
  | None -> Error (Printf.sprintf "plan: %s needs t=<transfer>" (scpu_action_to_string action))
  | Some v ->
      let* transfer = parse_int "t" v in
      Ok (Scpu { action; transfer })

let parse_net action args =
  let* () = known args [ "dir"; "tag"; "skip"; "count" ] in
  let* dir =
    match List.assoc_opt "dir" args with
    | None -> Ok None
    | Some "to_server" -> Ok (Some To_server)
    | Some "to_client" -> Ok (Some To_client)
    | Some d -> Error (Printf.sprintf "plan: dir is to_server or to_client, got %S" d)
  in
  let tag = List.assoc_opt "tag" args in
  let* skip =
    match List.assoc_opt "skip" args with None -> Ok 0 | Some v -> parse_int "skip" v
  in
  let* count =
    match List.assoc_opt "count" args with None -> Ok 1 | Some v -> parse_int "count" v
  in
  if count < 1 then Error "plan: count must be at least 1"
  else Ok (Net { action; dir; tag; skip; count })

let parse_event s =
  let action, args_s =
    match String.index_opt s '@' with
    | None -> (s, "")
    | Some i -> (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))
  in
  let* args = parse_args args_s in
  match String.trim action with
  | "crash" -> parse_scpu Crash args
  | "kill9" -> parse_scpu Kill9 args
  | "replay" -> parse_scpu Replay args
  | "corrupt" ->
      (* t=<k> addresses a coprocessor transfer; anything else is a frame
         corruption with net-style matchers. *)
      if List.mem_assoc "t" args then parse_scpu Corrupt args else parse_net Corrupt_frame args
  | "corrupt-frame" -> parse_net Corrupt_frame args
  | "drop" -> parse_net Drop args
  | "dup" | "duplicate" -> parse_net Duplicate args
  | "delay" -> parse_net Delay args
  | "timeout" ->
      let* () = known args [ "recv" ] in
      (match List.assoc_opt "recv" args with
      | None -> Error "plan: timeout needs recv=<call>"
      | Some v ->
          let* call = parse_int "recv" v in
          Ok (Recv_timeout { call }))
  | a -> Error (Printf.sprintf "plan: unknown action %S" a)

let of_string s =
  let parts =
    String.split_on_char ';' s |> List.map String.trim |> List.filter (fun p -> p <> "")
  in
  let* events, checkpoint_every =
    List.fold_left
      (fun acc part ->
        let* events, ck = acc in
        if String.length part >= 10 && String.sub part 0 10 = "checkpoint" then
          let args_s =
            match String.index_opt part '@' with
            | None -> ""
            | Some i -> String.sub part (i + 1) (String.length part - i - 1)
          in
          let* args = parse_args args_s in
          let* () = known args [ "every" ] in
          match List.assoc_opt "every" args with
          | None -> Error "plan: checkpoint needs every=<c>"
          | Some v ->
              let* c = parse_int "every" v in
              if c < 1 then Error "plan: checkpoint interval must be positive"
              else if ck <> None then Error "plan: checkpoint given twice"
              else Ok (events, Some c)
        else
          let* e = parse_event part in
          Ok (e :: events, ck))
      (Ok ([], None))
      parts
  in
  Ok { events = List.rev events; checkpoint_every }

(* --- random plans ---------------------------------------------------- *)

let random ~seed =
  let rng = Rng.create seed in
  let rng = Rng.split rng "fault-plan" in
  let n_events = 1 + Rng.int rng 3 in
  let pick_dir () =
    match Rng.int rng 3 with 0 -> Some To_server | 1 -> Some To_client | _ -> None
  in
  let events =
    List.init n_events (fun _ ->
        match Rng.int rng 8 with
        | 0 -> crash_at (Rng.int rng 200)
        | 1 -> corrupt_at (Rng.int rng 200)
        | 2 -> replay_at (Rng.int rng 200)
        | 3 -> drop ?dir:(pick_dir ()) ~skip:(Rng.int rng 3) ~count:(1 + Rng.int rng 2) ()
        | 4 -> duplicate ?dir:(pick_dir ()) ~skip:(Rng.int rng 4) ()
        | 5 -> delay ?dir:(pick_dir ()) ~skip:(Rng.int rng 4) ()
        | 6 -> corrupt_frame ?dir:(pick_dir ()) ~skip:(Rng.int rng 4) ()
        | _ -> recv_timeout (Rng.int rng 8))
  in
  (* Checkpoint often enough that most injected crashes resume rather
     than restart; sometimes absent, to exercise the restart path too. *)
  let checkpoint_every = if Rng.int rng 4 = 0 then None else Some (4 + Rng.int rng 60) in
  { events; checkpoint_every }

let pp ppf t = Format.pp_print_string ppf (to_string t)
