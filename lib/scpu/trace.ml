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

type entry = { op : op; region : region; index : int }

(* Non-table regions are constants, so physical equality decides them. *)
let same_region a b =
  a == b || match (a, b) with Table x, Table y -> String.equal x y | _ -> false

(* Each entry is one int: the op in bit 0, the region's id in the next
   [id_bits] bits and the index above them.  Regions are interned in the
   order they first appear, so an id means something only within its
   own trace.  Storing an int allocates nothing; a record per entry,
   stored into a major-heap array, would be promoted by every minor
   collection. *)
let id_bits = 20
let id_mask = (1 lsl id_bits) - 1
let index_shift = id_bits + 1
let pack op id index =
  (index lsl index_shift) lor (id lsl 1) lor match op with Read -> 0 | Write -> 1
let op_of cell = if cell land 1 = 0 then Read else Write
let id_of cell = (cell lsr 1) land id_mask
let index_of cell = cell asr index_shift

type t = {
  mutable cells : int array;
  mutable len : int;
  mutable regions : region array;  (* by id *)
  mutable n_regions : int;
  mutable last : int;  (* id of the last region recorded, -1 before any *)
}

let create () =
  { cells = Array.make 1024 0; len = 0; regions = Array.make 8 Disk; n_regions = 0; last = -1 }

(* The id of [region], or [n_regions] if it has none.  Top-level: a
   local recursive function would allocate its closure on every call. *)
let rec find_id t region i =
  if i = t.n_regions || same_region t.regions.(i) region then i else find_id t region (i + 1)

(* A trace visits few regions, in long runs: the last region is checked
   first, then the few seen so far. *)
let intern t region =
  if t.last >= 0 && same_region (Array.unsafe_get t.regions t.last) region then t.last
  else begin
    let id = find_id t region 0 in
    if id = t.n_regions then begin
      if id > id_mask then invalid_arg "Trace.record: too many regions";
      if id = Array.length t.regions then begin
        let bigger = Array.make (2 * id) Disk in
        Array.blit t.regions 0 bigger 0 id;
        t.regions <- bigger
      end;
      t.regions.(id) <- region;
      t.n_regions <- id + 1
    end;
    t.last <- id;
    id
  end

let record t op region index =
  let id = intern t region in
  if t.len = Array.length t.cells then begin
    let bigger = Array.make (2 * t.len) 0 in
    Array.blit t.cells 0 bigger 0 t.len;
    t.cells <- bigger
  end;
  Array.unsafe_set t.cells t.len (pack op id index);
  t.len <- t.len + 1

let length t = t.len

let entry t i =
  let cell = t.cells.(i) in
  { op = op_of cell; region = t.regions.(id_of cell); index = index_of cell }

let to_list t = List.init t.len (entry t)

(* The op bit is 0 for a read. *)
let reads t =
  let n = ref 0 in
  for i = 0 to t.len - 1 do
    n := !n + (1 - (Array.unsafe_get t.cells i land 1))
  done;
  !n

let writes t = t.len - reads t

let transfers_to_region t r =
  let id = find_id t r 0 and n = ref 0 in
  for i = 0 to t.len - 1 do
    if id_of (Array.unsafe_get t.cells i) = id then incr n
  done;
  !n

(* Ids are first-appearance order, so tallying by id is already the
   order the regions appeared in. *)
let by_region t =
  let reads = Array.make t.n_regions 0 and writes = Array.make t.n_regions 0 in
  for i = 0 to t.len - 1 do
    let cell = Array.unsafe_get t.cells i in
    let id = id_of cell in
    if cell land 1 = 0 then reads.(id) <- reads.(id) + 1 else writes.(id) <- writes.(id) + 1
  done;
  List.init t.n_regions (fun id -> (t.regions.(id), (reads.(id), writes.(id))))

let concat ts =
  let out = create () in
  List.iter
    (fun t ->
      for i = 0 to t.len - 1 do
        let cell = t.cells.(i) in
        record out (op_of cell) t.regions.(id_of cell) (index_of cell)
      done)
    ts;
  out

(* Two traces intern regions each in its own order, so equal cells can
   name different regions: the op and index bits are compared as ints,
   the regions through each trace's own table. *)
let same_cell a b i =
  let ca = a.cells.(i) and cb = b.cells.(i) in
  (ca lxor cb) land lnot (id_mask lsl 1) = 0
  && same_region a.regions.(id_of ca) b.regions.(id_of cb)

let equal a b =
  a.len = b.len
  &&
  let rec go i = i = a.len || (same_cell a b i && go (i + 1)) in
  go 0

let first_divergence a b =
  let n = max a.len b.len in
  let rec go i =
    if i = n then None
    else if i < a.len && i < b.len && same_cell a b i then go (i + 1)
    else
      let at t = if i < t.len then Some (entry t i) else None in
      Some (i, at a, at b)
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
    Format.fprintf ppf "@,%a" pp_entry (entry t i)
  done;
  if t.len > 40 then Format.fprintf ppf "@,...";
  Format.fprintf ppf "@]"
