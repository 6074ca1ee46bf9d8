fn main() {
    println!("{}", shapes::used_by_example());
}
