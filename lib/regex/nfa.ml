type inst =
  | Char of char
  | Any
  | Class of bool * (char * char) list
  | Split of int * int
  | Jmp of int
  | Bol
  | Eol
  | Accept

type program = inst array

exception Too_large

let budget = 100_000

(* Compilation emits into a growing buffer; placeholder targets are patched
   once known. *)
type emitter = { mutable code : inst array; mutable len : int }

let emit em inst =
  if em.len >= budget then raise Too_large;
  if em.len = Array.length em.code then begin
    let cap = max 16 (2 * Array.length em.code) in
    let code = Array.make cap Accept in
    Array.blit em.code 0 code 0 em.len;
    em.code <- code
  end;
  em.code.(em.len) <- inst;
  em.len <- em.len + 1;
  em.len - 1

let patch em at inst = em.code.(at) <- inst

let compile re =
  let em = { code = [||]; len = 0 } in
  let rec go = function
    | Syntax.Empty -> ()
    | Syntax.Char c -> ignore (emit em (Char c))
    | Syntax.Any -> ignore (emit em Any)
    | Syntax.Class { negated; ranges } -> ignore (emit em (Class (negated, ranges)))
    | Syntax.Bol -> ignore (emit em Bol)
    | Syntax.Eol -> ignore (emit em Eol)
    | Syntax.Seq (a, b) ->
        go a;
        go b
    | Syntax.Alt (a, b) ->
        let split = emit em (Split (0, 0)) in
        go a;
        let jmp = emit em (Jmp 0) in
        let b_start = em.len in
        go b;
        patch em split (Split (split + 1, b_start));
        patch em jmp (Jmp em.len)
    | Syntax.Star a ->
        let split = emit em (Split (0, 0)) in
        go a;
        ignore (emit em (Jmp split));
        patch em split (Split (split + 1, em.len))
    | Syntax.Plus a ->
        let start = em.len in
        go a;
        let split = emit em (Split (0, 0)) in
        patch em split (Split (start, em.len))
    | Syntax.Opt a ->
        let split = emit em (Split (0, 0)) in
        go a;
        patch em split (Split (split + 1, em.len))
    | Syntax.Repeat (a, lo, hi) -> (
        (* Every copy of [a] emits what the first did, so once a copy emits
           nothing the rest are skipped: [(){99999999999}] compiles at once
           instead of counting through its bound. *)
        let rec copies n =
          if n > 0 then begin
            let before = em.len in
            go a;
            if em.len > before then copies (n - 1)
          end
        in
        copies lo;
        match hi with
        | None -> go (Syntax.Star a)
        | Some h ->
            (* Each optional tail copy can short-circuit to the end. *)
            let splits = ref [] in
            for _ = lo + 1 to h do
              let split = emit em (Split (0, 0)) in
              splits := split :: !splits;
              go a;
              patch em split (Split (split + 1, 0))
            done;
            let fin = em.len in
            List.iter
              (fun split ->
                match em.code.(split) with
                | Split (next, _) -> patch em split (Split (next, fin))
                | _ -> assert false)
              !splits)
  in
  go re;
  ignore (emit em Accept);
  Array.sub em.code 0 em.len

let in_class negated ranges c =
  let hit = List.exists (fun (lo, hi) -> c >= lo && c <= hi) ranges in
  if negated then not hit else hit

(* Epsilon closure: push [pc] and everything reachable through Split/Jmp and
   position assertions onto the thread list, deduplicating per step. *)
let rec add_thread prog s pos on_list threads pc =
  if not on_list.(pc) then begin
    on_list.(pc) <- true;
    match prog.(pc) with
    | Jmp t -> add_thread prog s pos on_list threads t
    | Split (t1, t2) ->
        add_thread prog s pos on_list threads t1;
        add_thread prog s pos on_list threads t2
    | Bol -> if pos = 0 then add_thread prog s pos on_list threads (pc + 1)
    | Eol -> if pos = String.length s then add_thread prog s pos on_list threads (pc + 1)
    | Char _ | Any | Class _ | Accept -> threads := pc :: !threads
  end

let run_at prog s start =
  let n = String.length s in
  let current = ref [] in
  let last_accept = ref None in
  let on_list = Array.make (Array.length prog) false in
  add_thread prog s start on_list current 0;
  let pos = ref start in
  let continue = ref true in
  while !continue do
    let threads = List.rev !current in
    if List.exists (fun pc -> prog.(pc) = Accept) threads then last_accept := Some !pos;
    if !pos >= n || threads = [] then continue := false
    else begin
      let c = s.[!pos] in
      let next = ref [] in
      Array.fill on_list 0 (Array.length on_list) false;
      List.iter
        (fun pc ->
          let step =
            match prog.(pc) with
            | Char c' -> c = c'
            | Any -> true
            | Class (neg, ranges) -> in_class neg ranges c
            | Split _ | Jmp _ | Bol | Eol | Accept -> false
          in
          if step then add_thread prog s (!pos + 1) on_list next (pc + 1))
        threads;
      current := !next;
      incr pos
    end
  done;
  !last_accept

let search_from prog s start =
  let n = String.length s in
  let rec loop i =
    if i > n then None
    else
      match run_at prog s i with
      | Some stop -> Some (i, stop)
      | None -> loop (i + 1)
  in
  loop start

let pp_inst ppf = function
  | Char c -> Format.fprintf ppf "char %C" c
  | Any -> Format.pp_print_string ppf "any"
  | Class (neg, ranges) ->
      Format.fprintf ppf "class%s %s"
        (if neg then "^" else "")
        (String.concat ","
           (List.map (fun (a, b) -> Printf.sprintf "%c-%c" a b) ranges))
  | Split (a, b) -> Format.fprintf ppf "split %d %d" a b
  | Jmp t -> Format.fprintf ppf "jmp %d" t
  | Bol -> Format.pp_print_string ppf "bol"
  | Eol -> Format.pp_print_string ppf "eol"
  | Accept -> Format.pp_print_string ppf "accept"

let pp_program ppf prog =
  Array.iteri (fun i inst -> Format.fprintf ppf "%3d: %a@," i pp_inst inst) prog
