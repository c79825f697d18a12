type op = Read | Write

type region =
  | Table of string
  | Cartesian
  | Scratch
  | Joined
  | Buffer
  | Output
  | Oram_store
  | Oram_shelter
  | Disk
  | Checkpoint

type entry = { op : op; region : region; index : int }

type t = { mutable entries : entry array; mutable len : int }

let create () = { entries = Array.make 1024 { op = Read; region = Disk; index = 0 }; len = 0 }

let record t op region index =
  if t.len = Array.length t.entries then begin
    let bigger = Array.make (2 * t.len) t.entries.(0) in
    Array.blit t.entries 0 bigger 0 t.len;
    t.entries <- bigger
  end;
  t.entries.(t.len) <- { op; region; index };
  t.len <- t.len + 1

let length t = t.len

let to_list t = Array.to_list (Array.sub t.entries 0 t.len)

let count p t =
  let n = ref 0 in
  for i = 0 to t.len - 1 do
    if p t.entries.(i) then incr n
  done;
  !n

let reads = count (fun e -> e.op = Read)
let writes = count (fun e -> e.op = Write)
let transfers_to_region t r = count (fun e -> e.region = r) t

let region_name = function
  | Table s -> "table:" ^ s
  | Cartesian -> "cartesian"
  | Scratch -> "scratch"
  | Joined -> "joined"
  | Buffer -> "buffer"
  | Output -> "output"
  | Oram_store -> "oram_store"
  | Oram_shelter -> "oram_shelter"
  | Disk -> "disk"
  | Checkpoint -> "checkpoint"

let region_of_name s =
  match s with
  | "cartesian" -> Cartesian
  | "scratch" -> Scratch
  | "joined" -> Joined
  | "buffer" -> Buffer
  | "output" -> Output
  | "oram_store" -> Oram_store
  | "oram_shelter" -> Oram_shelter
  | "disk" -> Disk
  | "checkpoint" -> Checkpoint
  | _ ->
      let prefix = "table:" in
      let pl = String.length prefix in
      if String.length s > pl && String.sub s 0 pl = prefix then
        Table (String.sub s pl (String.length s - pl))
      else invalid_arg ("Trace.region_of_name: " ^ s)

(* Non-table regions are constants, so physical equality decides them. *)
let same_region a b =
  a == b || match (a, b) with Table x, Table y -> String.equal x y | _ -> false

type tally = { region : region; mutable reads : int; mutable writes : int }

(* A trace visits few regions, in long runs: the last region's tally is
   checked first, then the few seen so far. *)
let by_region t =
  let seen = ref [] in
  let find region =
    match List.find_opt (fun c -> same_region c.region region) !seen with
    | Some c -> c
    | None ->
        let c = { region; reads = 0; writes = 0 } in
        seen := c :: !seen;
        c
  in
  if t.len > 0 then begin
    let last = ref (find t.entries.(0).region) in
    for i = 0 to t.len - 1 do
      let e = t.entries.(i) in
      if not (same_region !last.region e.region) then last := find e.region;
      let c = !last in
      match e.op with Read -> c.reads <- c.reads + 1 | Write -> c.writes <- c.writes + 1
    done
  end;
  List.rev_map (fun c -> (c.region, (c.reads, c.writes))) !seen

let concat ts =
  let out = create () in
  List.iter (fun t -> for i = 0 to t.len - 1 do
      let e = t.entries.(i) in
      record out e.op e.region e.index
    done)
    ts;
  out

let equal a b =
  a.len = b.len
  &&
  let rec go i = i = a.len || (a.entries.(i) = b.entries.(i) && go (i + 1)) in
  go 0

let first_divergence a b =
  let n = max a.len b.len in
  let rec go i =
    if i = n then None
    else
      let ea = if i < a.len then Some a.entries.(i) else None in
      let eb = if i < b.len then Some b.entries.(i) else None in
      if ea = eb then go (i + 1) else Some (i, ea, eb)
  in
  go 0

let pp_region ppf = function
  | Table s -> Format.fprintf ppf "T:%s" s
  | Cartesian -> Format.fprintf ppf "D"
  | Scratch -> Format.fprintf ppf "scratch"
  | Joined -> Format.fprintf ppf "joined"
  | Buffer -> Format.fprintf ppf "buffer"
  | Output -> Format.fprintf ppf "out"
  | Oram_store -> Format.fprintf ppf "oram"
  | Oram_shelter -> Format.fprintf ppf "shelter"
  | Disk -> Format.fprintf ppf "disk"
  | Checkpoint -> Format.fprintf ppf "ckpt"

let pp_entry ppf e =
  Format.fprintf ppf "%c %a[%d]" (match e.op with Read -> 'R' | Write -> 'W') pp_region e.region e.index

let pp ppf t =
  Format.fprintf ppf "@[<v>trace(%d entries)" t.len;
  for i = 0 to min (t.len - 1) 39 do
    Format.fprintf ppf "@,%a" pp_entry t.entries.(i)
  done;
  if t.len > 40 then Format.fprintf ppf "@,...";
  Format.fprintf ppf "@]"
