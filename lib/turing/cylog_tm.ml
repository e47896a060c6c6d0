let escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | _ -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let to_source (m : Machine.t) ~input =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf
    {|schema:
  TuringMachine(id key, st, head);
  Tape(pos key, sym);
  Rule(st, sym, new_st, new_sym, dir);

rules:
|};
  List.iter
    (fun (r : Machine.rule) ->
      Buffer.add_string buf
        (Printf.sprintf
           "  Rule(st:\"%s\", sym:\"%s\", new_st:\"%s\", new_sym:\"%s\", dir:%d);\n"
           (escape r.state) (escape r.read) (escape r.next) (escape r.write)
           (Machine.direction_offset r.move)))
    m.rules;
  List.iteri
    (fun pos sym ->
      if sym <> "" then
        Buffer.add_string buf
          (Printf.sprintf "  Tape(pos:%d, sym:\"%s\");\n" pos (escape sym)))
    input;
  Buffer.add_string buf
    (Printf.sprintf "  Init: TuringMachine(id:1, st:%S, head:0);\n" (escape m.initial));
  Buffer.add_string buf
    {|  Fill: Tape(pos:head, sym:"")/update <- TuringMachine(id, head), not Tape(pos:head);
  Step: TuringMachine(id, head), Tape(pos:head, sym),
        Rule(st, sym, new_st, new_sym, dir),
        TuringMachine(id, st), new_pos = pos + dir {
    TuringMachine(id, st:new_st, head:new_pos)/update,
    Tape(pos, sym:new_sym)/update
  }
|};
  Buffer.contents buf

let load m ~input = Cylog.Engine.load (Cylog.Parser.parse_exn (to_source m ~input))

type run_result = {
  state : string;
  head : int;
  tape : (int * string) list;
  engine_steps : int;
}

let read_result engine engine_steps =
  let db = Cylog.Engine.database engine in
  let tm = Reldb.Database.find_exn db "TuringMachine" in
  let state, head =
    match Reldb.Relation.tuples tm with
    | [ t ] ->
        ( Reldb.Value.to_display (Reldb.Tuple.get_or_null t "st"),
          Reldb.Value.int_exn (Reldb.Tuple.get_exn t "head") )
    | _ -> invalid_arg "Cylog_tm: expected exactly one TuringMachine tuple"
  in
  let tape_rel = Reldb.Database.find_exn db "Tape" in
  let tape =
    Reldb.Relation.tuples tape_rel
    |> List.filter_map (fun t ->
           match
             ( Reldb.Tuple.get_or_null t "pos",
               Reldb.Value.to_display (Reldb.Tuple.get_or_null t "sym") )
           with
           | Reldb.Value.Int pos, sym when sym <> "" && sym <> "null" -> Some (pos, sym)
           | _ -> None)
    |> List.sort compare
  in
  { state; head; tape; engine_steps }

let run m ~input =
  let engine = load m ~input in
  let steps, _ = Cylog.Engine.run engine ~max_steps:100_000 in
  read_result engine steps

let agrees_with_direct m ~input =
  match Machine.run m ~input with
  | Error _ -> false
  | Ok (direct, _) ->
      let cy = run m ~input in
      String.equal cy.state direct.Machine.state
      && cy.tape = direct.Machine.tape

module Interactive = struct
  (* The head walks right; at each position the machine asks a human what
     to write — an unbounded sequence of phases, i.e. the class G_star.
     Dictating "." halts the machine instead of writing. *)
  let source =
    {|schema:
  TuringMachine(id key, st, head);
  Tape(pos key, sym);
  Dictation(pos key, sym);

rules:
  Init: TuringMachine(id:1, st:"ask", head:0);
  Ask: Dictation(pos:head, sym)/open <- TuringMachine(id, st:"ask", head);
  Move: TuringMachine(id, st:"ask", head), Dictation(pos:head, sym), sym != ".",
        new_pos = head + 1 {
    TuringMachine(id, st:"ask", head:new_pos)/update,
    Tape(pos:head, sym)/update
  }
  Halt: TuringMachine(id, st:"halt")/update
          <- TuringMachine(id, st:"ask", head), Dictation(pos:head, sym:".");
|}

  (* The Ask/Move loop is a deliberate open cycle — the whole point of
     G_star is unbounded phases — so strict lint (unbounded-task-emission)
     must not reject it. *)
  let load () = Cylog.Engine.load ~lint:`Warn (Cylog.Parser.parse_exn source)

  let dictate engine sym =
    ignore (Cylog.Engine.run engine);
    match Cylog.Engine.pending engine with
    | o :: _ -> (
        match
          Cylog.Engine.supply engine o.Cylog.Engine.id ~worker:(Reldb.Value.String "human")
            [ ("sym", Reldb.Value.String sym) ]
        with
        | Ok _ ->
            ignore (Cylog.Engine.run engine);
            Ok ()
        | Error e -> Error (Cylog.Engine.reject_to_string e))
    | [] -> Error "the machine is not asking anything"

  let run ~answers =
    let engine = load () in
    ignore (Cylog.Engine.run engine);
    let answers = if List.mem "." answers then answers else answers @ [ "." ] in
    List.iter
      (fun sym ->
        match dictate engine sym with
        | Ok () -> ()
        | Error e -> invalid_arg ("Interactive.run: " ^ e))
      answers;
    let tape = Reldb.Database.find_exn (Cylog.Engine.database engine) "Tape" in
    Reldb.Relation.tuples tape
    |> List.filter_map (fun t ->
           match
             ( Reldb.Tuple.get_or_null t "pos",
               Reldb.Value.to_display (Reldb.Tuple.get_or_null t "sym") )
           with
           | Reldb.Value.Int pos, sym when sym <> "null" -> Some (pos, sym)
           | _ -> None)
    |> List.sort compare |> List.map snd |> String.concat ""
end
