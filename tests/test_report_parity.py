"""Report parity on the whole corpus: the sha256 of the classify, pencil and
census JSON of each of the 14 corpus surfaces, byte for byte.

The golden files of ``test_cli`` cover Fermat only, the corpus surface with
the simplest coefficients.  Each surface is written to ``sNN.cubic`` in a
temporary directory and read from there, so the input path the reports echo
is the same on every machine.
"""

import hashlib
from pathlib import Path

import pytest

from cubiconics.cli import main

ROOT = Path(__file__).resolve().parent.parent
COMMANDS = (("classify",),
            ("pencil", "--line-height", "2"),
            ("census", "--line-height", "2", "--B", "50,200"))
# {surface file: sha256 of its classify, pencil and census reports}
DIGESTS = {
    "s01.cubic": ("8d20684be6e8a2fcd9c22afb4ba33da6c74b6e9b956b2f157bfe71882b1b2d25",
                  "adc6f34d56bd1c15349087827c27bbaafa6df16d16c2d8b140e75b6a9f7b27b5",
                  "7cba7d6b30cb9c92077eef3ed2244635e5553ac567e6bae7e13e391f6b15b874"),
    "s02.cubic": ("8455f004848d0e4f767a6bd7945e880e441993a84235c79aaa55c2b4ddff6daa",
                  "083b3f0e03e44a51a9ce20fbcbd89ed6d2b2e538c95662be14672e57459c9b77",
                  "f99453ba1e28360fe231ba29e9a6827978ea0bb5ff8152828066b62508c319c0"),
    "s03.cubic": ("49e1e516f5d3a3c6626d55df1220454b5205ff82b5ed08c9bc44b15c08d1e9d9",
                  "eaa694a1529ce7ea2a6676bc258400f90046baf1966781eee90be9c25d0a27a2",
                  "dbe042d294fd58b8f3b40a5c2259c41d1a26a50acb9134462dff430b6cffadaf"),
    "s04.cubic": ("92895d562bc53d26c572f92c217fca6c645a477586f81cc14b16536ec262f5fa",
                  "1b48e27d5e39ac2c2e89bffef0b7e0486f5a93f6890920d461ebc8e28c5020db",
                  "1a38f21988c782333be0edc0f49f32ef4364c25863795ded00e9c54ea3ee0a46"),
    "s05.cubic": ("c0736568bd1549ec39097a90092cf41aae5b170ede403c5ca2065f6cf912d077",
                  "cd9e267aadbc10648cc77aace14c7e1ad5c189202288d2de1c89e6b6657400aa",
                  "be445ac7b34116a5c285abe6ee4ef9cce6e3e2a1cf30c7a8a478496a3fd7a6d4"),
    "s06.cubic": ("c9dbf1987858215acd97564092519d8eb08c04fb91cf7bbc5b662b38d3f690ce",
                  "fdc9bddd65d6386884a1eb7b3a489dc37cc31aab1eb9ce8ebe95ab04d3e490a7",
                  "e1c42d46d11c2a1945096456898202d810a5ac8810032192dfa6a8a090682d66"),
    "s07.cubic": ("f570a04b940310c749b4d20281fd003e07da90b550b0d91ba4601a0307904d04",
                  "5ce6d6028bf94f5a1c9962137e7f7551bee0463d0e65f033f6e3d649042f3815",
                  "7672c8d91e2acf3b19fd64fa9c2ac85779a54a5b2450b5d69bf87386b9a4d639"),
    "s08.cubic": ("55431fa80fd989411e2dc1222e0e9108ed418b6278a42231aad29259047e7c3d",
                  "7ff04c0f24c91b6b66c1b2382180753bbc848d06e388bdaec94331333c3de8fc",
                  "ffb3e20ee1f0c305d355fa6189b4486914d63c829e05ab72fe509d2c6c09e918"),
    "s09.cubic": ("db360c915aca3ffd9a16ddf732b26fa1afb519d02f218641cb40250b6ece8d22",
                  "d491bc037a88d163c622b9a8667f1fd053ca5c8d96eadf08c6b100e8d83f0ac6",
                  "48e9ab9dba296e91bc59142d248a0dce5a982eb54434527908e79fccc7dc7465"),
    "s10.cubic": ("374921edf9fbd6476b1499489b537702dcbde299a1b89d15cb9f377cf1ab9448",
                  "abb78b017313c16d2b6cea64630b80fe48a603702e6701fe7d7a5b79e53a350c",
                  "f9fbe416b1e8f958c632033c122357d23ce5553d0550b4391f93c532ac43a14a"),
    "s11.cubic": ("6ad104ef7f0994588b848daa7a88606d266619f5a55217652a4180ba736dbd8a",
                  "7384208e242068574658017dc6434a6ed9cee13e5417d58bd06897a4655d1f63",
                  "d48d2446d1a95f698c3122be6b25a73100296b10087d64041731993d48e91a76"),
    "s12.cubic": ("bcf6d304d8bbfa36452de1e3494027083baa944818bdc3c2458ef30b34645fad",
                  "c7f3b18c1e154a22d25fb77aad2aa054e82202abca25be1d89b97ec767fa573b",
                  "c3cd30877d05dd0494183e96d1fe16ab5d1b58f0423ccd935d479dfc90739137"),
    "s13.cubic": ("eb3e1a444beaae3ec03cca672b92c558998abbe2d40f4db41ca94c23c661ae08",
                  "0ae58712ec403a9607c725e71b7904ce41440a6c10643e4852364643efe0602f",
                  "5eaea08cb713db7e1ee320ea61c2ee277eae3c49bf0b94d248dca9141ed4520c"),
    "s14.cubic": ("193e5f3df8fed9f40a53d76b17f5105dd985d5dd5a89a53272ee2688257a011b",
                  "6178afb5246ec32d34559b56e4e85744cd98390d2b5b4912647de06d28979bcd",
                  "0c5e97fdaf5a1fd69fea7c97b08aa1ef7e112da793a1fa260d560fee43340c83"),
}


def corpus():
    lines = [s.split("#", 1)[0].strip()
             for s in (ROOT / "data" / "cubics_corpus.txt").read_text().splitlines()]
    return [s for s in lines if s]


def test_corpus_has_every_pinned_surface():
    assert len(corpus()) == len(DIGESTS) == 14


@pytest.mark.parametrize("index", range(1, 15))
def test_corpus_reports_are_byte_identical(index, capsys, monkeypatch, tmp_path):
    name = f"s{index:02d}.cubic"
    (tmp_path / name).write_text(corpus()[index - 1] + "\n")
    monkeypatch.chdir(tmp_path)
    digests = []
    for command, *rest in COMMANDS:
        assert main([command, "--surface", name, *rest]) == 0
        digests.append(hashlib.sha256(capsys.readouterr().out.encode()).hexdigest())
    assert tuple(digests) == DIGESTS[name]
