let split_lines text =
  String.split_on_char '\n' text
  |> List.map String.trim
  |> List.filter (fun l -> not (String.equal l ""))

let split_fields line = String.split_on_char ',' line |> List.map String.trim

let is_int s = s <> "" && (match int_of_string_opt s with Some _ -> true | None -> false)

let is_set s =
  s <> "" && String.split_on_char ';' s |> List.for_all (fun p -> is_int (String.trim p))

let parse_set s =
  String.split_on_char ';' s |> List.map (fun p -> int_of_string (String.trim p))

let parse_value (ty : Schema.field_ty) raw =
  match ty with
  | Schema.TInt -> (
      match int_of_string_opt raw with
      | Some i -> Ok (Value.Int i)
      | None -> Error (Printf.sprintf "not an integer: %S" raw))
  | Schema.TStr w ->
      if String.length raw > w then Error (Printf.sprintf "string too long: %S" raw)
      else Ok (Value.Str raw)
  | Schema.TSet k ->
      if not (is_set raw) then Error (Printf.sprintf "not a set: %S" raw)
      else
        let xs = parse_set raw in
        if List.length (List.sort_uniq compare xs) > k then
          Error (Printf.sprintf "set too large: %S" raw)
        else Ok (Value.Set xs)

let parse schema ~name text =
  match split_lines text with
  | [] -> Error "empty input"
  | header :: rows ->
      let fields = Schema.fields schema in
      let expected = List.map (fun (f : Schema.field) -> f.name) fields in
      if split_fields header <> expected then
        Error
          (Printf.sprintf "header mismatch: expected %s" (String.concat "," expected))
      else begin
        let parse_row idx line =
          let cells = split_fields line in
          if List.length cells <> List.length fields then
            Error (Printf.sprintf "row %d: expected %d fields" idx (List.length fields))
          else
            let rec go acc fs cs =
              match (fs, cs) with
              | [], [] -> Ok (List.rev acc)
              | (f : Schema.field) :: fs, c :: cs -> (
                  match parse_value f.ty c with
                  | Ok v -> go (v :: acc) fs cs
                  | Error e -> Error (Printf.sprintf "row %d, field %s: %s" idx f.name e))
              | _ -> assert false
            in
            Result.map (Tuple.make schema) (go [] fields cells)
        in
        let rec all idx acc = function
          | [] -> Ok (List.rev acc)
          | r :: rest -> (
              match parse_row idx r with
              | Ok t -> all (idx + 1) (t :: acc) rest
              | Error e -> Error e)
        in
        Result.map (Relation.make ~name schema) (all 1 [] rows)
      end

let load schema ~name ~path =
  match In_channel.with_open_text path In_channel.input_all with
  | text -> parse schema ~name text
  | exception Sys_error e -> Error e

let render_value = function
  | Value.Int i -> string_of_int i
  | Value.Str s -> s
  | Value.Set xs -> String.concat ";" (List.map string_of_int (List.sort_uniq compare xs))

let print r =
  let buf = Buffer.create 256 in
  let fields = Schema.fields r.Relation.schema in
  Buffer.add_string buf
    (String.concat "," (List.map (fun (f : Schema.field) -> f.name) fields));
  Buffer.add_char buf '\n';
  Array.iter
    (fun (t : Tuple.t) ->
      Buffer.add_string buf
        (String.concat "," (Array.to_list (Array.map render_value t.Tuple.values)));
      Buffer.add_char buf '\n')
    r.Relation.tuples;
  Buffer.contents buf

let save r ~path = Out_channel.with_open_text path (fun oc -> output_string oc (print r))

let infer_schema text =
  match split_lines text with
  | [] -> Error "empty input"
  | header :: rows ->
      let names = split_fields header in
      let columns =
        List.mapi
          (fun i _ ->
            List.map
              (fun line ->
                match List.nth_opt (split_fields line) i with
                | Some c -> c
                | None -> "")
              rows)
          names
      in
      let field name col =
        if col <> [] && List.for_all is_int col then { Schema.name; ty = Schema.TInt }
        else if col <> [] && List.for_all is_set col then
          let cap =
            List.fold_left (fun acc c -> max acc (List.length (parse_set c))) 1 col
          in
          { Schema.name; ty = Schema.TSet (max cap 8) }
        else
          let w = List.fold_left (fun acc c -> max acc (String.length c)) 1 col in
          { Schema.name; ty = Schema.TStr (max w 16) }
      in
      (try Ok (Schema.make (List.map2 field names columns))
       with Invalid_argument e -> Error e)
