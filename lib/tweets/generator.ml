type tweet = {
  id : int;
  text : string;
  gt_weather : string option;
  gt_place : string option;
}

let default_count = 463

let pick rng xs = List.nth xs (Random.State.int rng (List.length xs))

(* Keyword choice is strongly biased toward the head of the keyword list
   (~75 / 12 / 8 / 5), so head-keyword extraction rules have clearly higher
   support than tail ones — the skew behind Table 1 row C. *)
let keyword_weights = [ 0.75; 0.12; 0.08; 0.05 ]

let pick_keyword rng (c : Vocabulary.condition) =
  let kws = c.keywords in
  let weights = List.filteri (fun i _ -> i < List.length kws) keyword_weights in
  let total = List.fold_left ( +. ) 0.0 weights in
  let x = Random.State.float rng total in
  let rec go acc ws ks =
    match (ws, ks) with
    | [ _ ], [ k ] | _, [ k ] -> k
    | w :: ws', k :: ks' -> if x < acc +. w then k else go (acc +. w) ws' ks'
    | [], k :: _ -> k
    | _, [] -> List.hd kws
  in
  go 0.0 weights kws

let clear_templates =
  [ (fun kw city -> Printf.sprintf "Morning in %s: %s all day. #tenki" city kw);
    (fun kw city -> Printf.sprintf "%s again over %s today. #tenki" kw city);
    (fun kw city -> Printf.sprintf "Forecast for %s says %s tomorrow. #tenki" city kw);
    (fun kw city -> Printf.sprintf "Walking around %s under %s. #tenki" city kw);
    (fun kw city -> Printf.sprintf "%s: %s since dawn, take care. #tenki" city kw) ]

let clear_placeless_templates =
  [ (fun kw -> Printf.sprintf "Nothing but %s here today. #tenki" kw);
    (fun kw -> Printf.sprintf "Woke up to %s again. #tenki" kw);
    (fun kw -> Printf.sprintf "Commute through the %s, as usual. #tenki" kw) ]

let ambiguous_templates =
  [ (fun city -> Printf.sprintf "Hard to say what the sky over %s wants today. #tenki" city);
    (fun city -> Printf.sprintf "Strange weather in %s, can't call it. #tenki" city);
    (fun city -> Printf.sprintf "%s keeps changing its mind this week. #tenki" city) ]

(* Half the ambiguous tweets mention a weather keyword misleadingly
   ("people say rain but who knows") — extraction rules match them yet the
   judges call the agreed value neither, which is what keeps real rule
   confidence below 100%. *)
let ambiguous_keyword_templates =
  [ (fun kw city -> Printf.sprintf "People promise %s for %s, but who knows. #tenki" kw city);
    (fun kw city -> Printf.sprintf "Forecast said %s in %s, looks nothing like it. #tenki" kw city) ]

let ambiguous_placeless_templates =
  [ (fun () -> "No idea what this weather is doing. #tenki");
    (fun () -> "Odd skies today, who can tell. #tenki") ]

let capitalize s =
  if s = "" then s
  else String.make 1 (Char.uppercase_ascii s.[0]) ^ String.sub s 1 (String.length s - 1)

let generate ?(seed = 2013) n =
  let rng = Random.State.make [| seed |] in
  List.init n (fun id ->
      let ambiguous = Random.State.float rng 1.0 < 0.25 in
      let placeless = Random.State.float rng 1.0 < 0.15 in
      if ambiguous then
        if placeless then
          { id; text = (pick rng ambiguous_placeless_templates) ();
            gt_weather = None; gt_place = None }
        else
          let city = pick rng Vocabulary.cities in
          let text =
            if Random.State.float rng 1.0 < 0.8 then
              let condition = pick rng Vocabulary.conditions in
              (pick rng ambiguous_keyword_templates) (pick_keyword rng condition) city
            else (pick rng ambiguous_templates) city
          in
          { id; text; gt_weather = None; gt_place = Some city }
      else
        let condition = pick rng Vocabulary.conditions in
        let kw = pick_keyword rng condition in
        if placeless then
          let text = capitalize ((pick rng clear_placeless_templates) kw) in
          { id; text; gt_weather = Some condition.value; gt_place = None }
        else
          let city = pick rng Vocabulary.cities in
          let text = capitalize ((pick rng clear_templates) kw city) in
          { id; text; gt_weather = Some condition.value; gt_place = Some city })

let corpus () = generate default_count

let is_ambiguous t = t.gt_weather = None

let pp ppf t =
  Format.fprintf ppf "#%d %S (weather=%s, place=%s)" t.id t.text
    (Option.value t.gt_weather ~default:"-")
    (Option.value t.gt_place ~default:"-")
