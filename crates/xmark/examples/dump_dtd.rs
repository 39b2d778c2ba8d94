fn main() {
    print!("{}", xproj_xmark::auction_dtd().to_dtd_syntax());
}
