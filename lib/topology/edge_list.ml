let lines_of doc = String.split_on_char '\n' doc

(* Graphs are dense arrays indexed by node id, so an unbounded id or header
   would let a few bytes of input demand gigabytes. *)
let max_nodes = 1_000_000

let parse_tokens doc =
  (* Returns (declared_nodes, rows) where each row is
     (line_number, u, v, label_token option). *)
  let declared = ref None in
  let rows = ref [] in
  let error = ref None in
  List.iteri
    (fun idx line ->
      if !error = None then begin
        let lineno = idx + 1 in
        let trimmed = String.trim line in
        if trimmed = "" then ()
        else if String.length trimmed >= 1 && trimmed.[0] = '#' then begin
          (* Recognise the optional "# nodes: N" header. *)
          let body = String.trim (String.sub trimmed 1 (String.length trimmed - 1)) in
          match String.index_opt body ':' with
          | Some i when String.trim (String.sub body 0 i) = "nodes" -> (
              let v = String.trim (String.sub body (i + 1) (String.length body - i - 1)) in
              match int_of_string_opt v with
              | Some n when n > max_nodes ->
                  error :=
                    Some
                      (Printf.sprintf
                         "line %d: node-count header %d exceeds the limit of %d nodes" lineno
                         n max_nodes)
              | Some n when n >= 0 -> declared := Some n
              | Some _ | None ->
                  error := Some (Printf.sprintf "line %d: bad node-count header" lineno))
          | _ -> ()
        end
        else begin
          let fields =
            String.split_on_char ' ' trimmed
            |> List.concat_map (String.split_on_char '\t')
            |> List.filter (fun s -> s <> "")
          in
          match fields with
          | [ a; b ] | [ a; b; _ ] -> (
              match (int_of_string_opt a, int_of_string_opt b) with
              | Some u, Some v when max u v >= max_nodes ->
                  error :=
                    Some
                      (Printf.sprintf "line %d: node id %d exceeds the limit of %d nodes"
                         lineno (max u v) max_nodes)
              | Some u, Some v ->
                  let lbl = match fields with [ _; _; l ] -> Some l | _ -> None in
                  rows := (lineno, u, v, lbl) :: !rows
              | _ -> error := Some (Printf.sprintf "line %d: expected integer node ids" lineno))
          | _ -> error := Some (Printf.sprintf "line %d: expected 'u v [label]'" lineno)
        end
      end)
    (lines_of doc);
  match !error with Some e -> Error e | None -> Ok (!declared, List.rev !rows)

let node_count declared rows =
  let max_id =
    List.fold_left (fun acc (_, u, v, _) -> max acc (max u v)) (-1) rows
  in
  let implied = max_id + 1 in
  match declared with Some n -> max n implied | None -> implied

let parse doc =
  match parse_tokens doc with
  | Error e -> Error e
  | Ok (declared, rows) -> (
      let num_nodes = node_count declared rows in
      let edges = List.map (fun (_, u, v, _) -> (u, v)) rows in
      match Graph.of_edges ~num_nodes edges with
      | exception Invalid_argument msg -> Error msg
      | graph -> (
          let labels = ref [] in
          let error = ref None in
          List.iter
            (fun (lineno, u, v, lbl) ->
              match lbl with
              | None | Some "p2p" -> ()
              | Some "c2p" ->
                  labels := ((u, v), Relations.Customer_provider { customer = u; provider = v }) :: !labels
              | Some "p2c" ->
                  labels := ((u, v), Relations.Customer_provider { customer = v; provider = u }) :: !labels
              | Some other ->
                  if !error = None then
                    error := Some (Printf.sprintf "line %d: unknown label %S" lineno other))
            rows;
          match !error with
          | Some e -> Error e
          | None -> Ok (Relations.make graph !labels)))

let parse_graph doc =
  match parse_tokens doc with
  | Error e -> Error e
  | Ok (declared, rows) -> (
      let num_nodes = node_count declared rows in
      let edges = List.map (fun (_, u, v, _) -> (u, v)) rows in
      match Graph.of_edges ~num_nodes edges with
      | exception Invalid_argument msg -> Error msg
      | graph -> Ok graph)

let print relations =
  let graph = Relations.graph relations in
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "# nodes: %d\n" (Graph.num_nodes graph));
  Array.iter
    (fun (u, v) ->
      let token =
        match Relations.label relations u v with
        | Relations.Peer_peer -> "p2p"
        | Relations.Customer_provider { customer; _ } -> if customer = u then "c2p" else "p2c"
      in
      Buffer.add_string buf (Printf.sprintf "%d %d %s\n" u v token))
    (Graph.edges graph);
  Buffer.contents buf

let print_graph graph =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "# nodes: %d\n" (Graph.num_nodes graph));
  Array.iter (fun (u, v) -> Buffer.add_string buf (Printf.sprintf "%d %d\n" u v)) (Graph.edges graph);
  Buffer.contents buf
