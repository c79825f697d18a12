module Ocb = Ppj_crypto.Ocb
module Hash = Ppj_crypto.Hash
module Registry = Ppj_obs.Registry

let format_version = 1
let snapshot_name = "snapshot.bin"
let journal_name = "journal.bin"
let default_compact_bytes = 4 * 1024 * 1024

type error = Rollback of string | Unreadable of string

let error_message = function
  | Rollback m -> "rollback detected: " ^ m
  | Unreadable m -> "unreadable state: " ^ m

type health = {
  epoch : int;
  snapshot_records : int;
  journal_records : int;
  journal_discarded : int;
  quarantined_records : int;
  quarantined_bytes : int;
}

(* Checkpoints and results are indexed contract first, then config
   digest, so a submission retires its contract's joins without scanning
   anyone else's. *)
type view = {
  v_contracts : (string, string) Hashtbl.t;
  v_submissions : (string * string, string) Hashtbl.t;
  v_nvram : (string, int) Hashtbl.t;
  v_checkpoints : (string, (string, string) Hashtbl.t) Hashtbl.t;
  v_results : (string, (string, string) Hashtbl.t) Hashtbl.t;
}

let new_view () =
  { v_contracts = Hashtbl.create 8;
    v_submissions = Hashtbl.create 8;
    v_nvram = Hashtbl.create 8;
    v_checkpoints = Hashtbl.create 8;
    v_results = Hashtbl.create 8;
  }

type t = {
  t_dir : string;
  key : Ocb.key;
  view : view;
  registry : Registry.t option;
  compact_bytes : int;
  journal_max_bytes : int option;
  nonce_prefix : string;
  mutable seq : int;
  mutable t_epoch : int;
  mutable writer : Journal.writer option;
  mutable t_sealed : bool;
  mutable t_records : int;  (** records in the current journal generation *)
  mutable t_snapshot_bytes : int;  (** size of the sealed snapshot file *)
}

let dir t = t.t_dir
let epoch t = t.t_epoch
let is_sealed t = t.t_sealed

type append_error = [ `Sealed | `Io of string ]

let append_error_message = function
  | `Sealed -> "durable store sealed read-only (out of space)"
  | `Io e -> "durable store I/O failure: " ^ e

let snapshot_path dir = Filename.concat dir snapshot_name
let journal_path dir = Filename.concat dir journal_name

(* The store key is derived from the server's long-term MAC key, not a
   session: durable records must reopen after every process and every
   handshake is gone. *)
let store_key mac_key =
  Ocb.key_of_string (String.sub (Hash.mac ~key:mac_key "ppj/store/key/v1") 0 16)

(* Payload layer: one marker byte, then either a plain record (Meta
   only) or nonce ^ OCB(record).  Sealing is what stops an attacker who
   can fix CRCs from forging records; Meta stays plain so generation
   bookkeeping is diagnosable without the key. *)

let nonce_prefix_bytes = 12

let random_nonce_prefix () =
  let fallback () =
    String.sub
      (Hash.digest
         (Printf.sprintf "%d:%f:%f" (Unix.getpid ()) (Unix.gettimeofday ()) (Sys.time ())))
      0 nonce_prefix_bytes
  in
  match Unix.openfile "/dev/urandom" [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> fallback ()
  | fd ->
      Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          let b = Bytes.create nonce_prefix_bytes in
          let n = try Unix.read fd b 0 nonce_prefix_bytes with Unix.Unix_error _ -> 0 in
          if n = nonce_prefix_bytes then Bytes.to_string b else fallback ())

let plain_payload record = "\x00" ^ Record.encode record

let seal_payload t record =
  let nonce =
    let b = Bytes.create 16 in
    Bytes.blit_string t.nonce_prefix 0 b 0 nonce_prefix_bytes;
    Bytes.set_int32_be b nonce_prefix_bytes (Int32.of_int t.seq);
    Bytes.unsafe_to_string b
  in
  t.seq <- t.seq + 1;
  "\x01" ^ nonce ^ Ocb.encrypt t.key ~nonce (Record.encode record)

let open_payload key payload =
  let n = String.length payload in
  if n < 1 then Error `Malformed
  else
    match payload.[0] with
    | '\x00' -> Ok (`Plain (String.sub payload 1 (n - 1)))
    | '\x01' when n >= 1 + 16 ->
        let nonce = String.sub payload 1 16 in
        (match Ocb.decrypt key ~nonce (String.sub payload 17 (n - 17)) with
        | Some plain -> Ok (`Sealed plain)
        | None -> Error `Auth)
    | _ -> Error `Malformed

(* --- replay ----------------------------------------------------------- *)

exception Refuse of error

let of_contract tbl contract =
  match Hashtbl.find_opt tbl contract with
  | Some by_config -> by_config
  | None ->
      let by_config = Hashtbl.create 4 in
      Hashtbl.replace tbl contract by_config;
      by_config

let find_join tbl ~contract ~config =
  Option.bind (Hashtbl.find_opt tbl contract) (fun by_config -> Hashtbl.find_opt by_config config)

let remove_join tbl ~contract ~config =
  Option.iter (fun by_config -> Hashtbl.remove by_config config) (Hashtbl.find_opt tbl contract)

let joins tbl =
  Hashtbl.fold
    (fun contract by_config acc ->
      Hashtbl.fold (fun config body acc -> ((contract, config), body) :: acc) by_config acc)
    tbl []

let apply_record view r =
  match r with
  | Record.Meta _ -> ()
  | Record.Contract { digest; body } -> Hashtbl.replace view.v_contracts digest body
  | Record.Submission { contract; provider; body } ->
      Hashtbl.replace view.v_submissions (contract, provider) body;
      (* A new submission supersedes every join computed or checkpointed
         from the contract's previous inputs.  Live appends and replay
         both come through here, so they agree. *)
      Hashtbl.remove view.v_checkpoints contract;
      Hashtbl.remove view.v_results contract
  | Record.Nvram { name; value } ->
      (match Hashtbl.find_opt view.v_nvram name with
      | Some cur when value < cur ->
          raise
            (Refuse
               (Rollback
                  (Printf.sprintf "nvram counter %S went backwards: %d -> %d"
                     (String.escaped name) cur value)))
      | _ -> Hashtbl.replace view.v_nvram name value)
  | Record.Checkpoint { contract; config; body } ->
      Hashtbl.replace (of_contract view.v_checkpoints contract) config body
  | Record.Result { contract; config; body } ->
      Hashtbl.replace (of_contract view.v_results contract) config body;
      remove_join view.v_checkpoints ~contract ~config
  | Record.Clear { contract; config } -> remove_join view.v_checkpoints ~contract ~config

(* First record of a non-empty file must be a plain Meta of a supported
   format; everything after it must be sealed.  Returns the epoch and
   the remaining records. *)
let head_meta key records ~file =
  match records with
  | [] -> Ok None
  | (_, payload) :: rest -> (
      match open_payload key payload with
      | Ok (`Plain plain) -> (
          match Record.decode plain with
          | Ok (Record.Meta { format; epoch }) when format = format_version ->
              Ok (Some (epoch, rest))
          | Ok (Record.Meta { format; _ }) ->
              Error
                (Unreadable (Printf.sprintf "%s: unsupported store format %d" file format))
          | Ok _ | Error _ -> Error (Unreadable (file ^ ": missing meta header")))
      | Ok (`Sealed _) | Error _ -> Error (Unreadable (file ^ ": missing meta header")))

(* Walk sealed records.  [strict] (snapshot) refuses on any anomaly —
   the file was written atomically, so damage is corruption, not a torn
   tail.  Non-strict (journal) stops at the first anomaly and reports
   the quarantine offset: recover-to-prefix. *)
let apply_stream view key records ~strict ~file =
  let rec go recs applied =
    match recs with
    | [] -> (applied, None)
    | (off, payload) :: rest -> (
        let stop () =
          if strict then raise (Refuse (Unreadable (file ^ ": sealed record rejected")))
          else (applied, Some off)
        in
        match open_payload key payload with
        | Ok (`Sealed plain) -> (
            match Record.decode plain with
            | Ok (Record.Meta _) -> stop ()  (* Meta is head-only *)
            | Ok r ->
                apply_record view r;
                go rest (applied + 1)
            | Error _ -> stop ())
        | Ok (`Plain _) | Error _ -> stop ())
  in
  go records 0

let tail_bytes = function
  | Journal.Clean -> 0
  | Journal.Truncated { bytes; _ } | Journal.Corrupt { bytes; _ } -> bytes

type loaded = {
  l_view : view;
  l_health : health;
  l_journal_epoch : int option;
  l_snapshot_bytes : int;
  l_journal_bytes : int;
  l_journal_clean : int;  (* journal bytes to keep on repair *)
}

let load key dirname =
  let view = new_view () in
  (* Snapshot: all-or-nothing. *)
  let snap = Journal.read_file (snapshot_path dirname) in
  if snap.Journal.tail <> Journal.Clean then
    raise (Refuse (Unreadable "snapshot has a torn or corrupt tail"));
  let snapshot_epoch, snapshot_rest =
    match head_meta key snap.Journal.records ~file:"snapshot" with
    | Ok None -> (0, [])
    | Ok (Some (e, rest)) -> (e, rest)
    | Error e -> raise (Refuse e)
  in
  let snapshot_records, _ = apply_stream view key snapshot_rest ~strict:true ~file:"snapshot" in
  (* Journal: recover-to-prefix. *)
  let jnl = Journal.read_file (journal_path dirname) in
  let j_total_bytes = jnl.Journal.clean_bytes + tail_bytes jnl.Journal.tail in
  let journal_epoch, applied, discarded, quarantined_records, j_clean =
    match head_meta key jnl.Journal.records ~file:"journal" with
    | Error _ ->
        (* An undecodable head frame would have failed CRC already; a
           clean-CRC bad head is a foreign file — refuse. *)
        if jnl.Journal.records = [] then (None, 0, 0, 0, 0)
        else raise (Refuse (Unreadable "journal: missing meta header"))
    | Ok None -> (None, 0, 0, 0, 0)
    | Ok (Some (je, rest)) ->
        if je > snapshot_epoch then
          raise
            (Refuse
               (Rollback
                  (Printf.sprintf
                     "journal epoch %d is ahead of snapshot epoch %d: the snapshot was \
                      rolled back"
                     je snapshot_epoch)))
        else if je < snapshot_epoch then
          (* Superseded generation: the compaction that wrote the current
             snapshot crashed before resetting the journal.  Its content
             is already inside the snapshot. *)
          (Some je, 0, List.length rest, 0, 0)
        else
          let applied, stop = apply_stream view key rest ~strict:false ~file:"journal" in
          let quarantined = List.length rest - applied in
          let clean =
            match stop with None -> jnl.Journal.clean_bytes | Some off -> off
          in
          (Some je, applied, 0, quarantined, clean)
  in
  let quarantined_bytes = j_total_bytes - j_clean in
  { l_view = view;
    l_health =
      { epoch = snapshot_epoch;
        snapshot_records;
        journal_records = applied;
        journal_discarded = discarded;
        quarantined_records;
        quarantined_bytes;
      };
    l_journal_epoch = journal_epoch;
    l_snapshot_bytes = snap.Journal.clean_bytes;
    l_journal_bytes = j_total_bytes;
    l_journal_clean = j_clean;
  }

(* --- open ------------------------------------------------------------- *)

let gauge t name v =
  match t.registry with
  | None -> ()
  | Some reg -> Registry.set_gauge reg name (float_of_int v)

let count ?(by = 1) t name =
  match t.registry with
  | None -> ()
  | Some reg -> Ppj_obs.Counter.incr ~by (Registry.counter reg name)

(* Durable-store health as gauges, so one scrape answers "how big is the
   journal, which generation are we on, and did the store seal itself
   read-only" without reading the state directory. *)
let health_gauges t =
  gauge t "store.journal.records" t.t_records;
  gauge t "store.snapshot.bytes" t.t_snapshot_bytes;
  gauge t "store.sealed" (if t.t_sealed then 1 else 0)

let ensure_dir dirname =
  if not (Sys.file_exists dirname) then (
    (try Unix.mkdir dirname 0o700
     with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    Journal.fsync_dir (Filename.dirname dirname))

let open_dir ?journal_max_bytes ?(compact_bytes = default_compact_bytes) ?registry ~mac_key
    dirname =
  let key = store_key mac_key in
  match
    ensure_dir dirname;
    load key dirname
  with
  | exception Refuse e -> Error e
  | exception Sys_error m -> Error (Unreadable m)
  | exception Unix.Unix_error (e, op, _) ->
      Error (Unreadable (Printf.sprintf "%s: %s" op (Unix.error_message e)))
  | loaded -> (
      let jpath = journal_path dirname in
      (* Repair: drop the quarantined tail (or a superseded generation)
         so the writer appends after the last good record. *)
      if loaded.l_journal_bytes > loaded.l_journal_clean then begin
        Journal.truncate_file jpath loaded.l_journal_clean;
        Journal.fsync_dir dirname
      end;
      match Journal.open_append ?max_bytes:journal_max_bytes jpath with
      | Error m -> Error (Unreadable m)
      | Ok w ->
          let t =
            { t_dir = dirname;
              key;
              view = loaded.l_view;
              registry;
              compact_bytes;
              journal_max_bytes;
              nonce_prefix = random_nonce_prefix ();
              seq = 0;
              t_epoch = loaded.l_health.epoch;
              writer = Some w;
              t_sealed = false;
              t_records = loaded.l_health.journal_records;
              t_snapshot_bytes = loaded.l_snapshot_bytes;
            }
          in
          let finish () =
            gauge t "store.epoch" t.t_epoch;
            gauge t "store.journal.bytes" (Journal.size w);
            health_gauges t;
            count ~by:loaded.l_health.quarantined_bytes t "store.quarantined.bytes";
            count ~by:loaded.l_health.quarantined_records t "store.quarantined.records";
            count ~by:loaded.l_health.journal_discarded t "store.discarded.records";
            Ok (t, loaded.l_health)
          in
          if Journal.size w = 0 then (
            match Journal.append w (plain_payload (Record.Meta { format = format_version; epoch = t.t_epoch })) with
            | Ok () -> finish ()
            | Error `Sealed ->
                t.t_sealed <- true;
                finish ()
            | Error (`Io m) -> Error (Unreadable m))
          else finish ())

(* --- appends ---------------------------------------------------------- *)

let rec append_record t r =
  match t.writer with
  | None -> Error `Sealed
  | Some _ when t.t_sealed -> Error `Sealed
  | Some w -> (
      let payload = seal_payload t r in
      match Journal.append w payload with
      | Ok () ->
          count t "store.appends";
          count ~by:(String.length payload) t "store.append.bytes";
          count t "store.fsyncs";
          apply_record t.view r;
          t.t_records <- t.t_records + 1;
          gauge t "store.journal.bytes" (Journal.size w);
          health_gauges t;
          if Journal.size w > t.compact_bytes then begin
            match compact t with
            | Ok () -> ()
            | Error _ -> count t "store.compact.failed"
          end;
          Ok ()
      | Error `Sealed ->
          t.t_sealed <- true;
          count t "store.sealed";
          health_gauges t;
          Error `Sealed
      | Error (`Io m) ->
          t.t_sealed <- true;
          count t "store.sealed";
          health_gauges t;
          Error (`Io m))

(* --- compaction ------------------------------------------------------- *)

and compact t =
  if t.t_sealed || t.writer = None then Error `Sealed
  else begin
    let next_epoch = t.t_epoch + 1 in
    let sorted tbl cmp = List.sort cmp (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []) in
    let by_key (a, _) (b, _) = compare a b in
    (* Submissions before checkpoints and results: replaying a
       submission supersedes its contract's joins, so this order is what
       keeps the snapshot's joins alive. *)
    let records =
      List.concat
        [ List.map
            (fun (digest, body) -> Record.Contract { digest; body })
            (sorted t.view.v_contracts by_key);
          List.map
            (fun ((contract, provider), body) -> Record.Submission { contract; provider; body })
            (sorted t.view.v_submissions by_key);
          List.map
            (fun (name, value) -> Record.Nvram { name; value })
            (sorted t.view.v_nvram by_key);
          List.map
            (fun ((contract, config), body) -> Record.Checkpoint { contract; config; body })
            (List.sort by_key (joins t.view.v_checkpoints));
          List.map
            (fun ((contract, config), body) -> Record.Result { contract; config; body })
            (List.sort by_key (joins t.view.v_results));
        ]
    in
    let payloads =
      plain_payload (Record.Meta { format = format_version; epoch = next_epoch })
      :: List.map (fun r -> seal_payload t r) records
    in
    match Journal.write_atomic (snapshot_path t.t_dir) payloads with
    | Error m -> Error (`Io m)
    | Ok () -> (
        (* The new snapshot epoch is committed; resetting the journal may
           now crash safely (an old-epoch journal is discarded on open). *)
        t.t_epoch <- next_epoch;
        (match t.writer with Some w -> Journal.close w | None -> ());
        t.writer <- None;
        Journal.truncate_file (journal_path t.t_dir) 0;
        match Journal.open_append ?max_bytes:t.journal_max_bytes (journal_path t.t_dir) with
        | Error m ->
            t.t_sealed <- true;
            Error (`Io m)
        | Ok w -> (
            t.writer <- Some w;
            match
              Journal.append w (plain_payload (Record.Meta { format = format_version; epoch = next_epoch }))
            with
            | Ok () ->
                count t "store.compactions";
                t.t_records <- 0;
                t.t_snapshot_bytes <-
                  (try (Unix.stat (snapshot_path t.t_dir)).Unix.st_size
                   with Unix.Unix_error _ -> t.t_snapshot_bytes);
                gauge t "store.epoch" t.t_epoch;
                gauge t "store.journal.bytes" (Journal.size w);
                gauge t "store.compaction.last_unix_seconds" (int_of_float (Unix.gettimeofday ()));
                health_gauges t;
                Ok ()
            | Error `Sealed ->
                t.t_sealed <- true;
                Error `Sealed
            | Error (`Io m) ->
                t.t_sealed <- true;
                Error (`Io m)))
  end

let put_contract t ~digest body = append_record t (Record.Contract { digest; body })

let put_submission t ~contract ~provider body =
  append_record t (Record.Submission { contract; provider; body })

let nvram_set t ~name value =
  (match Hashtbl.find_opt t.view.v_nvram name with
  | Some cur when value < cur ->
      invalid_arg
        (Printf.sprintf "Store.nvram_set: counter %S is monotonic (%d -> %d refused)"
           (String.escaped name) cur value)
  | _ -> ());
  append_record t (Record.Nvram { name; value })

let put_checkpoint t ~contract ~config body =
  append_record t (Record.Checkpoint { contract; config; body })

let put_result t ~contract ~config body = append_record t (Record.Result { contract; config; body })

let clear_checkpoint t ~contract ~config = append_record t (Record.Clear { contract; config })

(* --- reads ------------------------------------------------------------ *)

let contracts t =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.view.v_contracts [] |> List.sort compare

let submissions_of t digest =
  Hashtbl.fold
    (fun (c, provider) body acc ->
      if String.equal c digest then (provider, body) :: acc else acc)
    t.view.v_submissions []
  |> List.sort compare

let nvram t name = Hashtbl.find_opt t.view.v_nvram name

let nvram_all t =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.view.v_nvram [] |> List.sort compare

let checkpoint t ~contract ~config = find_join t.view.v_checkpoints ~contract ~config

let result t ~contract ~config = find_join t.view.v_results ~contract ~config

let close t =
  (match t.writer with Some w -> Journal.close w | None -> ());
  t.writer <- None

(* --- offline validation ----------------------------------------------- *)

type report = {
  r_ok : bool;
  r_error : string option;
  r_snapshot_epoch : int;
  r_journal_epoch : int option;
  r_health : health;
  r_contracts : int;
  r_submissions : int;
  r_nvram : (string * int) list;
  r_checkpoints : int;
  r_results : int;
  r_snapshot_bytes : int;
  r_journal_bytes : int;
}

let empty_health = {
  epoch = 0;
  snapshot_records = 0;
  journal_records = 0;
  journal_discarded = 0;
  quarantined_records = 0;
  quarantined_bytes = 0;
}

let check ~mac_key dirname =
  let key = store_key mac_key in
  match load key dirname with
  | exception Refuse e ->
      { r_ok = false;
        r_error = Some (error_message e);
        r_snapshot_epoch = 0;
        r_journal_epoch = None;
        r_health = empty_health;
        r_contracts = 0;
        r_submissions = 0;
        r_nvram = [];
        r_checkpoints = 0;
        r_results = 0;
        r_snapshot_bytes = 0;
        r_journal_bytes = 0;
      }
  | exception Sys_error m ->
      { r_ok = false;
        r_error = Some ("unreadable state: " ^ m);
        r_snapshot_epoch = 0;
        r_journal_epoch = None;
        r_health = empty_health;
        r_contracts = 0;
        r_submissions = 0;
        r_nvram = [];
        r_checkpoints = 0;
        r_results = 0;
        r_snapshot_bytes = 0;
        r_journal_bytes = 0;
      }
  | loaded ->
      let view = loaded.l_view in
      { r_ok = true;
        r_error = None;
        r_snapshot_epoch = loaded.l_health.epoch;
        r_journal_epoch = loaded.l_journal_epoch;
        r_health = loaded.l_health;
        r_contracts = Hashtbl.length view.v_contracts;
        r_submissions = Hashtbl.length view.v_submissions;
        r_nvram =
          Hashtbl.fold (fun k v acc -> (k, v) :: acc) view.v_nvram [] |> List.sort compare;
        r_checkpoints = List.length (joins view.v_checkpoints);
        r_results = List.length (joins view.v_results);
        r_snapshot_bytes = loaded.l_snapshot_bytes;
        r_journal_bytes = loaded.l_journal_bytes;
      }
