(* CRC-32 (IEEE), table-driven.  All arithmetic stays below 2^32 so the
   native int is enough on the 64-bit toolchains CI runs. *)
let crc_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
         done;
         !c))

let crc32 s =
  let t = Lazy.force crc_table in
  let c = ref 0xFFFFFFFF in
  String.iter (fun ch -> c := t.((!c lxor Char.code ch) land 0xff) lxor (!c lsr 8)) s;
  !c lxor 0xFFFFFFFF

let max_record_bytes = 1 lsl 26 (* 64 MiB: nothing legitimate comes close *)

let header_bytes = 8

type tail =
  | Clean
  | Truncated of { offset : int; bytes : int }
  | Corrupt of { offset : int; bytes : int }

type contents = { records : (int * string) list; clean_bytes : int; tail : tail }

let frame payload =
  let n = String.length payload in
  if n > max_record_bytes then invalid_arg "Journal.frame: record too large";
  let b = Bytes.create (header_bytes + n) in
  Bytes.set_int32_be b 0 (Int32.of_int n);
  Bytes.set_int32_be b 4 (Int32.of_int (crc32 payload));
  Bytes.blit_string payload 0 b header_bytes n;
  Bytes.unsafe_to_string b

let u32_at s pos = Int32.to_int (String.get_int32_be s pos) land 0xFFFFFFFF

let parse data =
  let len = String.length data in
  let rec go pos acc =
    if pos = len then { records = List.rev acc; clean_bytes = pos; tail = Clean }
    else if pos + header_bytes > len then
      { records = List.rev acc; clean_bytes = pos; tail = Truncated { offset = pos; bytes = len - pos } }
    else
      let n = u32_at data pos in
      if n > max_record_bytes then
        { records = List.rev acc; clean_bytes = pos; tail = Corrupt { offset = pos; bytes = len - pos } }
      else if pos + header_bytes + n > len then
        { records = List.rev acc; clean_bytes = pos; tail = Truncated { offset = pos; bytes = len - pos } }
      else
        let payload = String.sub data (pos + header_bytes) n in
        if crc32 payload <> u32_at data (pos + 4) then
          { records = List.rev acc; clean_bytes = pos; tail = Corrupt { offset = pos; bytes = len - pos } }
        else go (pos + header_bytes + n) ((pos, payload) :: acc)
  in
  go 0 []

let read_whole path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let read_file path =
  if not (Sys.file_exists path) then { records = []; clean_bytes = 0; tail = Clean }
  else parse (read_whole path)

let fsync_dir dir =
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | fd ->
      Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () -> try Unix.fsync fd with Unix.Unix_error _ -> ())
  | exception Unix.Unix_error _ -> ()

let truncate_file path bytes =
  try Unix.truncate path bytes with Unix.Unix_error _ -> ()

let write_atomic path records =
  let tmp = path ^ ".tmp" in
  match Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o600 with
  | exception Unix.Unix_error (e, _, _) ->
      Error (Printf.sprintf "%s: %s" tmp (Unix.error_message e))
  | fd -> (
      let write_all () =
        List.iter
          (fun r ->
            let b = Bytes.unsafe_of_string (frame r) in
            let len = Bytes.length b in
            let n = Unix.write fd b 0 len in
            if n <> len then raise (Unix.Unix_error (Unix.ENOSPC, "write", tmp)))
          records;
        Unix.fsync fd
      in
      match write_all () with
      | () ->
          Unix.close fd;
          Unix.rename tmp path;
          fsync_dir (Filename.dirname path);
          Ok ()
      | exception Unix.Unix_error (e, op, _) ->
          (try Unix.close fd with Unix.Unix_error _ -> ());
          (try Unix.unlink tmp with Unix.Unix_error _ -> ());
          Error (Printf.sprintf "%s: %s: %s" tmp op (Unix.error_message e)))

type writer = {
  fd : Unix.file_descr;
  max_bytes : int option;
  mutable size : int;
  mutable sealed : bool;
  mutable fsyncs : int;
}

let open_append ?max_bytes path =
  match Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o600 with
  | exception Unix.Unix_error (e, _, _) ->
      Error (Printf.sprintf "%s: %s" path (Unix.error_message e))
  | fd ->
      let size = (Unix.fstat fd).Unix.st_size in
      Ok { fd; max_bytes; size; sealed = false; fsyncs = 0 }

let is_sealed w = w.sealed
let size w = w.size
let fsyncs w = w.fsyncs

let seal w =
  w.sealed <- true;
  (try Unix.fsync w.fd with Unix.Unix_error _ -> ());
  Error `Sealed

let append w payload =
  if w.sealed then Error `Sealed
  else
    let b = Bytes.unsafe_of_string (frame payload) in
    let len = Bytes.length b in
    (* Simulated device capacity: write what fits — a genuine torn tail
       for the reader to quarantine — then seal, exactly like ENOSPC. *)
    let cap =
      match w.max_bytes with
      | Some m when w.size + len > m -> Some (max 0 (m - w.size))
      | _ -> None
    in
    match cap with
    | Some fits ->
        (try
           let n = if fits > 0 then Unix.write w.fd b 0 fits else 0 in
           w.size <- w.size + n
         with Unix.Unix_error _ -> ());
        seal w
    | None -> (
        match Unix.write w.fd b 0 len with
        | n when n = len ->
            w.size <- w.size + n;
            (match Unix.fsync w.fd with
            | () ->
                w.fsyncs <- w.fsyncs + 1;
                Ok ()
            | exception Unix.Unix_error (e, _, _) ->
                ignore (seal w);
                Error (`Io (Unix.error_message e)))
        | n ->
            (* Short write: the device took part of the frame.  Keep the
               torn bytes for the reader's quarantine logic and stop
               accepting writes. *)
            w.size <- w.size + n;
            ignore (seal w);
            Error `Sealed
        | exception Unix.Unix_error (Unix.ENOSPC, _, _) -> seal w
        | exception Unix.Unix_error (e, _, _) ->
            ignore (seal w);
            Error (`Io (Unix.error_message e)))

let close w = try Unix.close w.fd with Unix.Unix_error _ -> ()
