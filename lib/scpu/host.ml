(* Regions ordered as polymorphic compare orders them (constant
   constructors in declaration order, then tables by name), which fixes
   the order of exported checkpoint images.  Every transfer looks its
   region up here, so the map compares regions itself instead of
   calling polymorphic compare at each node. *)
module Region_map = Map.Make (struct
  type t = Trace.region

  let rank : t -> int = function
    | Cartesian -> 0
    | Scratch -> 1
    | Joined -> 2
    | Buffer -> 3
    | Output -> 4
    | Oram_store -> 5
    | Oram_shelter -> 6
    | Disk -> 7
    | Checkpoint -> 8
    | Table _ -> 9

  let compare a b =
    match (a, b) with
    | Trace.Table x, Trace.Table y -> String.compare x y
    | _ -> Int.compare (rank a) (rank b)
end)

type export = {
  e_regions : (Trace.region * string option array) list;
  e_disk : string list;  (* reversed, as held internally *)
  e_disk_tuples : int;
}

type t = {
  mutable regions : string option array Region_map.t;
  mutable disk : string list;  (* reversed *)
  mutable disk_tuples : int;
  mutable checkpoint_image : export option;
      (* the host's own memory/disk as of the coprocessor's last sealed
         checkpoint — host-side recovery state, so it costs no transfers.
         Every byte of it is ciphertext the coprocessor authenticates on
         read (and epoch-checks for freshness), so a host serving a
         doctored image is caught exactly like any other tampering. *)
}

let create () =
  { regions = Region_map.empty; disk = []; disk_tuples = 0; checkpoint_image = None }

let save_checkpoint t =
  t.checkpoint_image <-
    Some
      { e_regions = List.map (fun (r, a) -> (r, Array.copy a)) (Region_map.bindings t.regions);
        e_disk = t.disk;
        e_disk_tuples = t.disk_tuples;
      }

let has_checkpoint t = Option.is_some t.checkpoint_image

let export_checkpoint t = t.checkpoint_image

let install_checkpoint t e = t.checkpoint_image <- Some e

let restore_checkpoint t =
  match t.checkpoint_image with
  | None -> invalid_arg "Host.restore_checkpoint: no checkpoint image held"
  | Some e ->
      t.regions <-
        List.fold_left
          (fun m (r, a) -> Region_map.add r (Array.copy a) m)
          Region_map.empty e.e_regions;
      t.disk <- e.e_disk;
      t.disk_tuples <- e.e_disk_tuples

let reset t =
  t.regions <- Region_map.empty;
  t.disk <- [];
  t.disk_tuples <- 0

let define_region t region ~size =
  t.regions <- Region_map.add region (Array.make size None) t.regions;
  t

(* [find], not [find_opt]: every transfer comes through here, and the
   option would be allocated on each. *)
let slots t region =
  match Region_map.find region t.regions with
  | a -> a
  | exception Not_found -> invalid_arg "Host: undefined region"

let region_size t region = Array.length (slots t region)

let raw_get t region i =
  match (slots t region).(i) with
  | Some c -> c
  | None ->
      invalid_arg
        (Format.asprintf "Host: empty slot %a" Trace.pp_entry
           { Trace.op = Read; region; index = i })

let raw_set t region i c = (slots t region).(i) <- Some c

let peek t region i =
  match Region_map.find_opt region t.regions with
  | Some a when i >= 0 && i < Array.length a -> a.(i)
  | _ -> None

let tamper t region i ~byte =
  let c = Bytes.of_string (raw_get t region i) in
  let pos = byte mod Bytes.length c in
  Bytes.set c pos (Char.chr (Char.code (Bytes.get c pos) lxor 0x01));
  raw_set t region i (Bytes.to_string c)

let persist t region ~count =
  for i = 0 to count - 1 do
    t.disk <- raw_get t region i :: t.disk
  done;
  t.disk_tuples <- t.disk_tuples + count

let disk t = List.rev t.disk
let disk_writes t = t.disk_tuples

let observe ?(labels = []) t reg =
  let module Registry = Ppj_obs.Registry in
  Ppj_obs.Counter.set_to (Registry.counter ~labels reg "host.disk_tuples") t.disk_tuples;
  Registry.set_gauge ~labels reg "host.regions" (float_of_int (Region_map.cardinal t.regions));
  Region_map.iter
    (fun region slots ->
      Registry.set_gauge
        ~labels:(("region", Trace.region_name region) :: labels)
        reg "host.region.size"
        (float_of_int (Array.length slots)))
    t.regions
